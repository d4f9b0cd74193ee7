"""Run every workload once and print each metric by name, value and unit.

    python3 perfbench/report.py --seed 0 --seconds 25 --trace 0

Each workload runs in its own process (``run.py``), one after another, so
peak memory and timings of one do not leak into the next. ``--trace 1``
prints the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':36s} {'unit':7s}" + "".join(f"{n:>14s}" for n in names))
    for m in declared:
        row = "".join(f"{results[n]['metrics'][m['name']]['value']:14.6g}" for n in names)
        print(f"{m['name']:36s} {m['unit']:7s}{row}")
    row = "".join(f"{results[n]['failed'] / results[n]['attempted']:14.6g}" for n in names)
    print(f"{'failed_frac':36s} {'ratio':7s}{row}")
    row = "".join(f"{str(results[n]['correct']):>14s}" for n in names)
    print(f"{'correct':36s} {'':7s}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
