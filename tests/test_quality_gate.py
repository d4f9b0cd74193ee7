"""End-to-end quality gate: the desk pipeline at reduced sizes, seeds 0-2.

    PYTHONPATH=src python -m pytest -m slow tests/test_quality_gate.py

The default run deselects it (``-m 'not slow'`` in pyproject.toml). It runs
``scripts/run_desk_pipeline.py`` once per seed, the three seeds side by
side, and compares the seed means with ``tests/data/quality_gate.json``:

- ``reference`` holds each seed's held-out EM, F1 and retrieval F1 and each
  phase's last-epoch mean training loss, measured once on the commit it
  names. ``tolerance`` is that seed spread (max - min over the seeds, at
  least two held-out questions' worth for the answer and retrieval
  metrics). A seed mean worse than the reference mean by more than its
  tolerance fails. Sizes, seeds and tolerances are fixed; they are never
  re-tuned to let a change through.
- ``trace_digests`` records a digest of every phase's loss trace per seed,
  for the code at the commit it names. They are records, not a check: float
  training traces depend on the numpy build and the CPU's BLAS kernels, so
  a change that claims bit-equivalent training compares its digests with a
  run of its parent on the same machine.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusionqa.config import desk_finetune_config, desk_stage_config

ROOT = Path(__file__).resolve().parent.parent
GATE = json.loads((ROOT / "tests" / "data" / "quality_gate.json").read_text())
PHASE_EPOCHS = {
    "stage1": desk_stage_config(1).epochs,
    "stage2": desk_stage_config(2).epochs,
    "stage3": desk_stage_config(3).epochs,
    "reranker": desk_finetune_config("reranker").epochs,
    "qa": desk_finetune_config("qa").epochs,
}
HIGHER_IS_BETTER = ("em", "f1", "retr_f1")

pytestmark = pytest.mark.slow


def run_seeds(workdir: Path) -> dict:
    """Run the desk pipeline at the gate's sizes for every gate seed, in
    parallel; returns seed -> {metric: value, "digests": {phase: digest}}."""
    sizes = GATE["sizes"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    procs = {}
    for seed in GATE["seeds"]:
        out = workdir / f"seed{seed}"
        cmd = [sys.executable, str(ROOT / "scripts" / "run_desk_pipeline.py"),
               "--workdir", str(out), "--seed", str(seed)]
        for key, value in sizes.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        procs[seed] = (out, subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                             stderr=subprocess.STDOUT, text=True))
    results = {}
    for seed, (out, proc) in procs.items():
        log = proc.communicate()[0]
        assert proc.returncode == 0, f"seed {seed} failed:\n{log}"
        result = json.loads((out / "metrics.json").read_text())
        result["digests"] = {}
        for phase, epochs in PHASE_EPOCHS.items():
            raw = (out / f"{phase}_trace.csv").read_bytes()
            result["digests"][phase] = hashlib.blake2b(raw, digest_size=16).hexdigest()
            losses = [float(line.split(",")[2]) for line in raw.decode().splitlines()[1:]]
            result[f"{phase}_loss"] = float(np.mean(losses[-len(losses) // epochs:]))
        results[str(seed)] = result
    return results


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_seeds(tmp_path_factory.mktemp("quality_gate"))


def test_seed_means_within_reference_spread(runs):
    ref, tol = GATE["reference"], GATE["tolerance"]
    failures = []
    for metric, bound in tol.items():
        got = float(np.mean([runs[s][metric] for s in runs]))
        want = float(np.mean([ref[s][metric] for s in ref if s != "commit"]))
        worse = want - got if metric in HIGHER_IS_BETTER else got - want
        if worse > bound:
            failures.append(f"{metric}: mean {got:.4f} vs reference {want:.4f} (tolerance {bound:.4f})")
    per_seed = {s: {k: v for k, v in r.items() if k != "digests"} for s, r in runs.items()}
    assert not failures, f"{failures}; per seed {per_seed}"

