"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spans
import workloads


def test_self_time_of_hand_built_span_tree():
    tree = [
        ("bench.op", 0.0, 10.0, -1, 0),
        ("pipeline.a", 1.0, 5.0, 0, 0),
        ("model.b", 2.0, 3.0, 1, 0),
        ("model.c", 2.5, 4.0, 1, 0),   # overlaps its sibling: covered once
        ("vision.d", 6.0, 8.0, 0, 0),
        ("trace.e", 9.5, 11.0, 0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([3.5, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_layer_self_times_account_for_the_operation():
    tracer = spans.Tracer(workloads.MODULES)
    tracer.spans.extend([
        ("bench.op", 0.0, 0.010, -1, 0),
        ("pipeline.run_pipeline", 0.001, 0.009, 0, 0),
        ("model.encode_multimodal", 0.002, 0.006, 1, 0),
        ("vision.encode_image", 0.003, 0.004, 2, 0),
        ("checkpoint.save", 0.0, 0.5, -1, -1),
    ])
    m = spans.layer_metrics(tracer, 1, 1, [10.0], [9.0])
    layers = sum(m[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert layers == pytest.approx(10.0)
    assert m["model.encode_multimodal.ms"] == pytest.approx(3.0)
    assert m["vision.encode_image.ms"] == pytest.approx(1.0)
    assert m["trace.self_time_coverage"] == pytest.approx(0.8)
    assert m["checkpoint.save.ms"] == pytest.approx(500.0)
    assert m["trace.overhead_ms"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, p, expected", [
    (99, 90, None),    # only 9 samples beyond the 90th percentile
    (100, 90, 89),     # nearest rank 90: samples 90..99 lie beyond
    (19, 50, None),
    (20, 50, 9),
    (1000, 99, 989),
])
def test_tail_percentile_needs_ten_samples_beyond(n, p, expected):
    assert run.tail_percentile(list(range(n))[::-1], p) == expected


def test_metric_names_and_units():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.METRIC_NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.UNIT.match(m["unit"]), m
    for bad in ("", "_x", "x y", "a" * 65, "ms/s"):
        assert not run.METRIC_NAME.match(bad)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_declared_per_layer_metric():
    tracer = spans.Tracer(workloads.MODULES)
    declared = {m["name"] for m in run.load_spec()["per_layer"]}
    assert set(spans.layer_metrics(tracer, 1, 1, [1.0], [1.0])) == declared


def test_same_seed_gives_byte_identical_inputs():
    w = workloads.WORKLOADS["train_rerank"]
    base = os.path.join(run.WORK, "selftest")
    found = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        d = os.path.join(base, name)
        workloads.clear(d)
        workloads.setup(w, seed, d)
        found.append(workloads.input_digest(d))
    workloads.clear(base)
    assert found[0] == found[1] != found[2]


def _result(scores, selected):
    pool = [SimpleNamespace(id=f"d{j}") for j in range(len(scores))]
    inst = SimpleNamespace(qid="q", pool=pool, gold_ids=["d0"])
    out = SimpleNamespace(
        retrieved=SimpleNamespace(scores=np.array(scores), selected=selected),
        selected_ids=[pool[j].id for j in selected], answer="a")
    return out, inst


@pytest.mark.parametrize("scores, selected, problem", [
    ([0.6, 0.5, 0.4], [0, 1, 2], None),
    ([0.6, 0.5, 0.4], [1, 0, 2], "descending"),
    ([0.9, 0.5, 0.1], [0, 1, 2], "below tau"),
    ([0.6, 0.5, 0.4], [], "empty"),
    ([0.6, float("nan"), 0.4], [0, 2], "non-finite"),
    ([0.5] * 7, list(range(6)), "k is 5"),
])
def test_selection_checks(scores, selected, problem):
    out, inst = _result(scores, selected)
    problems, _ = workloads.check_selection(out, inst, workloads.config.SelectionConfig())
    if problem is None:
        assert problems == []
    else:
        assert any(problem in p for p in problems), problems
