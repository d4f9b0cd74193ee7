"""Run one fusionqa benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qa_rerank --seed 0 --seconds 22 --trace 0

From the repository root. Set-up (inputs, random-init models, a checkpoint
round trip) runs SETUP_REPS times, at the start and spread evenly over the
measured time, and reports its median. The workload's operations run in a
closed loop for ``--seconds`` seconds, and at least MIN_TIMED_OPS of them,
after WARMUP_OPS untimed ones. Every operation's
output is checked; a failed check or an exception counts the operation as
failed. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` traces every other operation and reports the per-layer
metrics, with the tracing overhead taken from the untraced operations in
between. The last line of standard output is the result as one JSON object;
the lines before it give each metric with its unit, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 7
WARMUP_OPS = 2
MIN_TIMED_OPS = 100
LOSS_WINDOW = 50  # final_loss: mean over the last LOSS_WINDOW of the first LOSS_END ops
LOSS_END = WARMUP_OPS + MIN_TIMED_OPS
MAX_SECONDS = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        if not METRIC_NAME.match(m["name"]) or not UNIT.match(m.get("unit", "1")):
            raise ValueError(f"{path}: bad name or unit in {m}")
    return spec


def tail_percentile(samples, p: int):
    """The p-th percentile (nearest rank), or None when fewer than ten
    samples lie beyond it."""
    n = len(samples)
    rank = -(-p * n // 100)  # ceil(p * n / 100)
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def digest(lines) -> str:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = os.path.join(ROOT, "src", "fusionqa")
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_digest": h.hexdigest(),
    }


def measure(w, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer(workloads.MODULES) if trace else None

    setup_s, input_digests = [], []

    def set_up():
        r = len(setup_s)
        d = os.path.join(workdir, f"setup{r}")
        workloads.clear(d)
        t0 = time.perf_counter()
        if tracer:
            state = tracer.call(-1 - r, "bench.setup", workloads.setup, w, seed, d)
        else:
            state = workloads.setup(w, seed, d)
        setup_s.append(time.perf_counter() - t0)
        input_digests.append(workloads.input_digest(d))
        return state

    # The operations use the first set-up's state. The later set-ups are
    # spread over the measured time, whose clock they stop, so that their
    # median does not hang on the machine's speed at a single moment.
    state = set_up()

    traced_loader = tracer.wrap("pipeline.image_loader", state.loader) if tracer else None
    untraced_ms, traced_ms, losses, records, problems_seen = [], [], [], [], []
    attempted = failed = items = 0
    busy = 0.0
    first_out = None
    start = None
    i = 0
    while True:
        if i == WARMUP_OPS:
            start = time.perf_counter()
        traced = tracer is not None and i >= WARMUP_OPS and i % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                out = tracer.call(i, "bench.op", state.op, i, traced_loader)
            else:
                out = state.op(i, state.loader)
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            out, error = None, exc
        dt = time.perf_counter() - t0
        attempted += 1
        if error is None:
            problems, record = state.check(i, out)
        else:
            problems, record = [f"raised {error!r}"], ""
            if not problems_seen:
                traceback.print_exception(error, file=sys.stderr)
        if problems:
            failed += 1
            if len(problems_seen) < 5:
                problems_seen.append(f"op {i}: {'; '.join(problems)}")
        if i == 0:
            first_out = out
        if i < LOSS_END:
            records.append(record)
            if not problems and i >= LOSS_END - LOSS_WINDOW:
                losses.append(state.loss(i, out))
        if i >= WARMUP_OPS:
            if traced:
                traced_ms.append(dt * 1e3)
            else:
                untraced_ms.append(dt * 1e3)
                items += state.items(i)
                busy += dt
        i += 1
        if start is not None:
            elapsed = time.perf_counter() - start - sum(setup_s[1:])
            if len(setup_s) < SETUP_REPS and elapsed >= seconds * len(setup_s) / (SETUP_REPS - 1):
                set_up()
            if i >= LOSS_END and elapsed >= seconds and len(setup_s) == SETUP_REPS:
                break
            if elapsed > MAX_SECONDS:
                raise RuntimeError(
                    f"only {i} operations in {MAX_SECONDS} s; a run needs {LOSS_END}")

    run_problems = state.final_check(first_out)
    if len(set(input_digests)) != 1:
        run_problems.append("set-up repetitions generated different inputs")
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen + run_problems,
        "correct": failed == 0 and not run_problems,
        "samples": {"setup_s": setup_s, "untraced_ms": untraced_ms, "traced_ms": traced_ms},
        "items": {"unit": workloads.items_name(w), "count": items},
        "input_digest": input_digests[0],
        "output_digest": digest(records),
        "loss_digest": digest(repr(x) for x in losses),
    }
    if tracer is None:
        result["metrics"] = {
            "latency_ms_p50": statistics.median(untraced_ms),
            "latency_ms_p90": tail_percentile(untraced_ms, 90),
            "throughput_per_s": items / busy,
            "final_loss": sum(losses) / len(losses) if losses else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
        }
    else:
        result["metrics"] = spans.layer_metrics(tracer, len(traced_ms), SETUP_REPS,
                                                traced_ms, untraced_ms)
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ROOT, "src", "fusionqa", "__init__.py")):
        print(f"perfbench: no fusionqa source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, w.name)
    result = measure(w, args.seed, args.seconds, bool(args.trace), workdir)
    metrics = result.pop("metrics")
    if set(metrics) != set(declared) or any(v is None for v in metrics.values()):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        unset = sorted(k for k, v in metrics.items() if v is None)
        print(f"perfbench: metrics do not match BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}, unmeasured {unset}", file=sys.stderr)
        return 1

    spans = result.pop("spans", None)
    info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), **result}
    os.makedirs(workdir, exist_ok=True)
    stem = os.path.join(workdir, f"seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics}, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# {w.name} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / result['attempted']:.4f})")
    for name in declared:
        print(f"{name:40s} {metrics[name]:14.6g} {declared[name]}")
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "samples"}}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
