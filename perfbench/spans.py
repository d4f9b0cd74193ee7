"""In-memory span recorder for the traced benchmark run.

The traced run replaces the public functions of each fusionqa module with
wrappers, at the places where callers look the names up: modules import
each other's functions by name (``pipeline.score``, ``generator.decode_step``,
``training.backward``), so patching the defining module alone would miss
those calls. Tensor op functions only get a call counter, because there are
thousands per operation and their time belongs to the layer that issued them.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the operation it belongs to
(negative for set-up repetitions). The layer of a span is the part of its
name before the first dot.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict

import numpy as np

from workloads import vision_digest

# (module, attribute, span name). A module name with a dot names a class.
SPAN_SITES = (
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "score", "reranker.score"),
    ("pipeline", "select_contexts", "reranker.select_contexts"),
    ("pipeline", "generate", "generator.generate"),
    ("pipeline", "load_image_ppm", "images.load_image_ppm"),
    ("reranker", "encode_multimodal", "model.encode_multimodal"),
    ("reranker", "assemble_reranker_input", "tokenizer.assemble"),
    ("generator", "encode_multimodal", "model.encode_multimodal"),
    ("generator", "decode_step", "model.decode_step"),
    ("generator", "assemble_qa_input", "tokenizer.assemble"),
    ("generator", "generate_ids", "generator.generate_ids"),
    ("vision", "encode_image", "vision.encode_image"),
    ("tokenizer.Vocab", "token_ids", "tokenizer.encode"),
    ("training", "run_pretrain_stage", "training.run_pretrain_stage"),
    ("training", "finetune_reranker", "training.finetune_reranker"),
    ("training", "score", "reranker.score"),
    ("training", "reranker_loss", "reranker.reranker_loss"),
    ("training", "build_training_batch", "reranker.build_training_batch"),
    ("training", "qa_loss", "generator.qa_loss"),
    ("training", "encode_multimodal", "model.encode_multimodal"),
    ("training", "assemble_qa_input", "tokenizer.assemble"),
    ("training", "backward", "tensor.backward"),
    ("training", "clip_global_norm", "training.clip_global_norm"),
    ("training.AdamW", "step", "training.adamw_step"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("synthetic", "generate_corpora", "synthetic.generate_corpora"),
    ("synthetic", "load_pretrain_corpus", "synthetic.load_pretrain_corpus"),
    ("dataset", "load_dataset", "dataset.load_dataset"),
)

# Every layer a span can belong to; "bench" is the root span of an operation
# and "trace" the tracer's own bookkeeping.
LAYERS = ("bench", "pipeline", "reranker", "generator", "model", "vision", "tokenizer",
          "images", "training", "tensor", "trace")

# Modules whose calls into the taped op functions are counted.
OP_CALLERS = ("model", "vision", "reranker", "generator", "training")
# Public tensor functions that are not taped ops.
NOT_OPS = {"ShapeError", "Tensor", "Rng", "no_grad", "backward", "grad_check",
           "primitive_forward", "sigmoid_np"}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and overlaps merged)."""
    children = defaultdict(list)
    for sid, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while its wrappers are installed.

    ``call`` installs every wrapper, runs one operation under a root span and
    restores the originals, so code outside a traced operation runs unwrapped.
    """

    def __init__(self, fusionqa_modules: dict):
        self.modules = fusionqa_modules
        self.spans: list = []
        self.op_calls = 0
        self.info = defaultdict(list)
        self._stack = [-1]
        self._op = -1
        self._patches: list = []
        self._vision_digests: dict = {}
        self._after = {
            "model.encode_multimodal": self._after_encode,
            "vision.encode_image": self._after_encode_image,
            "generator.generate_ids": self._after_generate_ids,
            "reranker.select_contexts": self._after_select,
            "training.adamw_step": self._after_adamw_step,
        }

    def wrap(self, name, fn):
        """``fn`` wrapped so each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after.get(name)

        def wrapped(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op)
            if after is not None:
                # the tracer's own bookkeeping is a span of layer "trace"
                t0 = clock()
                after(args, result)
                spans.append(("trace.hook", t0, clock(), parent, self._op))
            return result

        return wrapped

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.op_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _owner(self, site):
        module, _, cls = site.partition(".")
        owner = self.modules[module]
        return getattr(owner, cls) if cls else owner

    def install(self):
        for site, attr, name in SPAN_SITES:
            owner = self._owner(site)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        tensor = self.modules["tensor"]
        for module in OP_CALLERS:
            owner = self.modules[module]
            for name in tensor.__all__:
                if name not in NOT_OPS and getattr(owner, name, None) is getattr(tensor, name):
                    self._patch(owner, name, self._count(getattr(tensor, name)))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, op: int, name: str, fn, *args):
        """Run ``fn(*args)`` as operation ``op`` under a root span."""
        self._op = op
        self._vision_digests.clear()  # weights may have changed since last op
        self.install()
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.uninstall()

    # -- per-call facts, recorded after the wrapped call returns ----------

    def _after_encode(self, args, result):
        self.info["encode_tokens"].append(len(args[1].ids))

    def _after_encode_image(self, args, result):
        model, img = args[0], args[1]
        key = id(model)
        if key not in self._vision_digests:
            self._vision_digests[key] = vision_digest(model)
        pixels = hashlib.blake2b(np.ascontiguousarray(img.pixels).tobytes(), digest_size=16)
        self.info["encode_image_keys"].append((self._vision_digests[key], pixels.digest()))

    def _after_generate_ids(self, args, result):
        self.info["generated_tokens"].append(len(result))

    def _after_select(self, args, result):
        self.info["selected"].append((len(result.selected), len(result.scores)))

    def _after_adamw_step(self, args, result):
        self._vision_digests.clear()


def _per(total, n):
    return total / n if n else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, op_ms: list,
                  untraced_ms: list) -> dict:
    """Per-layer metrics of a traced run, each per traced operation (set-up
    metrics per set-up repetition). A layer that an operation never reaches
    reports 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    ms = defaultdict(float)
    calls = defaultdict(int)
    setup_ms = defaultdict(float)
    root_ms = 0.0
    for (name, start, end, _, op), s in zip(spans, selfs):
        if op >= 0:
            ms[name] += s * 1e3
            calls[name] += 1
            if name == "bench.op":
                root_ms += (end - start) * 1e3
        else:
            setup_ms[name] += s * 1e3

    decode_growth = []
    decode_by_parent = defaultdict(list)
    for name, start, end, parent, op in spans:
        if name == "model.decode_step" and op >= 0:
            decode_by_parent[parent].append(end - start)
    for steps in decode_by_parent.values():
        if len(steps) >= 16:
            decode_growth.append(sum(steps[-8:]) / sum(steps[:8]))

    info = tracer.info
    keys = info["encode_image_keys"]
    selected = info["selected"]
    loader_calls = calls["pipeline.image_loader"]
    m = {
        "tensor.op.calls": _per(tracer.op_calls, n_ops),
        "tensor.backward.calls": _per(calls["tensor.backward"], n_ops),
        "vision.encode_image.calls": _per(calls["vision.encode_image"], n_ops),
        "vision.encode_image.unique_ratio": _per(len(set(keys)), len(keys)),
        "model.encode.tokens_mean": _per(sum(info["encode_tokens"]), len(info["encode_tokens"])),
        "model.decode_step.calls": _per(calls["model.decode_step"], n_ops),
        "reranker.score.calls": _per(calls["reranker.score"], n_ops),
        "reranker.selected_ratio": _per(sum(s for s, _ in selected), sum(p for _, p in selected)),
        "generator.tokens_per_question": _per(sum(info["generated_tokens"]),
                                              len(info["generated_tokens"])),
        "generator.decode_ms_per_token": _per(ms["model.decode_step"], calls["model.decode_step"]),
        "generator.decode_growth": float(np.median(decode_growth)) if decode_growth else 0.0,
        "training.steps": _per(calls["training.adamw_step"], n_ops),
        "images.load_image_ppm.calls": _per(calls["images.load_image_ppm"], n_ops),
        "pipeline.image_cache_hit_ratio":
            _per(loader_calls - calls["images.load_image_ppm"], loader_calls),
    }
    for name in ("tensor.backward", "vision.encode_image", "model.encode_multimodal",
                 "model.decode_step", "reranker.score", "generator.generate",
                 "generator.qa_loss", "tokenizer.assemble", "tokenizer.encode",
                 "training.adamw_step", "training.clip_global_norm",
                 "pipeline.run_pipeline"):
        m[f"{name}.ms"] = _per(ms[name], n_ops)
    for name in ("checkpoint.save", "checkpoint.load", "synthetic.generate_corpora",
                 "synthetic.load_pretrain_corpus", "dataset.load_dataset"):
        m[f"{name}.ms"] = _per(setup_ms[name], n_setups)

    layer_self = defaultdict(float)
    for name, total in ms.items():
        layer_self[name.split(".", 1)[0]] += total
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = _per(layer_self[layer], n_ops)
    # share of the root spans' time that lies inside some layer's span
    m["trace.self_time_coverage"] = _per(root_ms - ms["bench.op"], root_ms)
    traced_median, untraced_median = float(np.median(op_ms)), float(np.median(untraced_ms))
    m["trace.overhead_ms"] = traced_median - untraced_median
    m["trace.overhead_ratio"] = traced_median / untraced_median
    return m
