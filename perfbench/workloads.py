"""The four benchmark workloads: generated inputs, one operation, its checks.

Every input comes from the workload seed: the corpora from
``synthetic.generate_corpora`` and a random-init ``desk`` backbone from
``MultimodalTransformer.build``. A random-init model rarely emits eos,
so greedy decoding nearly always runs to ``max_new_tokens``, and it scores
every candidate sigmoid(0), so selection always keeps ``k`` contexts: the
work per operation is fixed by the workload, not by training luck.

All workloads are closed loops with one caller, as fusionqa is a library
called by one waiting process.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from fusionqa import (
    checkpoint,
    config,
    dataset,
    generator,
    model,
    pipeline,
    reranker,
    synthetic,
    tensor,
    tokenizer,
    training,
    vision,
)

MODULES = {m.__name__.rsplit(".", 1)[-1]: m for m in (
    checkpoint, dataset, generator, model, pipeline, reranker, synthetic, tensor,
    tokenizer, training, vision,
)}

# Shared by every workload: the desk run's world and vocabulary request.
BASE_CORPORA = dict(n_entities=150, n_captions=0, n_vqa=0, n_train=0, n_heldout=0,
                    n_distractors=9, vocab_size=1400)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "qa", "joint" or "rerank"
    corpora: dict = field(default_factory=dict)
    max_new_tokens: int = 1  # used by the qa workloads only


WORKLOADS = {w.name: w for w in (
    # why each workload exists: BENCHMARK.json and README.md
    Workload("qa_rerank", "qa", dict(n_heldout=200, n_distractors=19), max_new_tokens=4),
    Workload("qa_decode", "qa", dict(n_heldout=200, n_distractors=9, answer_style="sentence"),
             max_new_tokens=64),
    Workload("train_joint", "joint", dict(n_captions=512)),
    Workload("train_rerank", "rerank", dict(n_train=256, n_distractors=9)),
)}


def items_name(w: Workload) -> str:
    return {"qa": "questions", "joint": "examples", "rerank": "pairs"}[w.kind]


def setup(w: Workload, seed: int, workdir: str):
    """Generate the inputs, build the backbone, save it and load it back
    (twice for the pipeline: one reranker and one answerer, both from the
    same checkpoint as in the desk run). Returns the run's state."""
    corpora = os.path.join(workdir, "corpora")
    synthetic.generate_corpora(corpora, seed=seed, **{**BASE_CORPORA, **w.corpora})
    vocab = tokenizer.Vocab.load(os.path.join(corpora, "vocab.txt"))
    if w.kind == "joint":
        data = synthetic.load_pretrain_corpus(os.path.join(corpora, "pretrain_stage2.jsonl"))
    elif w.kind == "rerank":
        data = dataset.load_dataset(os.path.join(corpora, "qa_train.jsonl"))
    else:
        data = dataset.load_dataset(os.path.join(corpora, "qa_heldout.jsonl"))
    backbone = model.MultimodalTransformer.build(
        config.model_profile("desk", vocab_size=vocab.size), tensor.Rng(seed).child("init"))
    # A random relevance head ranks all image documents above all text ones,
    # or the reverse, depending on the seed; that would make the generator's
    # inputs, and so the work per question, depend on the seed. With a zero
    # output layer every candidate scores sigmoid(0) and selection keeps the
    # first k of the randomly ordered pool.
    backbone.params["cls_head.w2"].data[...] = 0.0
    path = os.path.join(workdir, "backbone.ckpt")
    checkpoint.save_checkpoint(backbone, path)
    models = [checkpoint.load_checkpoint(path) for _ in range(2 if w.kind == "qa" else 1)]
    return Run(w, seed, vocab, data, models)


def input_digest(workdir: str) -> str:
    """Digest of every file set-up wrote, by relative path."""
    h = hashlib.blake2b(digest_size=16)
    for base, dirs, files in os.walk(workdir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, workdir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def clear(workdir: str):
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)


def vision_digest(m) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(m.params):
        if name.startswith("vision."):
            h.update(np.ascontiguousarray(m.params[name].data).tobytes())
    return h.hexdigest()


class Run:
    """One workload's state across its operations."""

    def __init__(self, w: Workload, seed: int, vocab, data, models):
        self.w, self.seed, self.vocab, self.data, self.models = w, seed, vocab, data, models
        self.loader = pipeline.make_image_loader()
        self.sel = config.SelectionConfig()
        self.gen = config.GenerationConfig(max_new_tokens=w.max_new_tokens)
        self.stage = config.desk_stage_config(2)
        self.stage.epochs = 1
        self.finetune = config.desk_finetune_config("reranker")
        self.finetune.epochs = 1
        self.frozen_vision = vision_digest(models[0])
        if w.kind == "joint" and len(data) % self.stage.global_batch:
            raise ValueError("stage-2 corpus size must be a multiple of the batch")

    def op(self, i: int, loader):
        """Operation i: one pipeline question, or one optimizer step."""
        if self.w.kind == "qa":
            inst = self.data[i % len(self.data)]
            return pipeline.run_pipeline(inst, self.models[0], self.models[1], self.sel,
                                         self.gen, self.vocab, image_loader=loader)
        rng = tensor.Rng(self.seed).child(f"{self.w.name}/op{i}")
        if self.w.kind == "joint":
            b = self.stage.global_batch
            start = (i * b) % len(self.data)
            return training.run_pretrain_stage(self.models[0], self.vocab, self.stage,
                                               self.data[start:start + b], rng)
        inst = self.data[i % len(self.data)]
        return training.finetune_reranker(self.models[0], self.vocab, [inst], self.finetune,
                                          rng, image_loader=loader)

    def items(self, i: int) -> int:
        """Questions, training examples or scored pairs in operation i."""
        if self.w.kind == "qa":
            return 1
        if self.w.kind == "joint":
            return self.stage.global_batch
        pool = self.data[i % len(self.data)].pool
        pos = sum(d.label == "supporting" for d in pool)
        return pos + min(len(pool) - pos, max(0, self.finetune.global_batch - pos))

    def check(self, i: int, out) -> tuple[list[str], str]:
        """(problems, digest record) for operation i's output."""
        if self.w.kind == "qa":
            return check_selection(out, self.data[i % len(self.data)], self.sel)
        problems = [] if len(out) == 1 else [f"{len(out)} steps, expected 1"]
        loss = float(out[-1][2]) if out else math.nan
        if not math.isfinite(loss):
            problems.append(f"non-finite loss {loss}")
        return problems, repr(loss)

    def loss(self, i: int, out) -> float:
        """The step's training loss; for a question, the answer model's
        loss on the gold answer given the selected contexts (untimed)."""
        if self.w.kind != "qa":
            return float(out[-1][2])
        inst = self.data[i % len(self.data)]
        qa_model = self.models[1]
        by_id = {d.id: d for d in inst.pool}
        contexts = [by_id[d] for d in out.selected_ids]
        seq = tokenizer.assemble_qa_input(self.vocab, inst.question, contexts,
                                          qa_model.config.n_img_tokens, qa_model.config.lm.max_len)
        images = [self.loader(d) for d in contexts if d.modality == "image"]
        with tensor.no_grad():
            enc = model.encode_multimodal(qa_model, seq, images[:len(seq.image_spans)])
            target = self.vocab.encode(inst.answers[0]).ids
            return float(generator.qa_loss(qa_model, enc, target).item())

    def final_check(self, first_out) -> list[str]:
        """Run-level checks: the frozen vision encoder did not move, and the
        first question answers the same when asked again."""
        problems = []
        if self.w.kind == "rerank" and vision_digest(self.models[0]) != self.frozen_vision:
            problems.append("frozen vision weights changed")
        if self.w.kind == "qa" and first_out is not None:
            again = self.op(0, self.loader)
            if (again.selected_ids, again.answer) != (first_out.selected_ids, first_out.answer):
                problems.append("question 0 answered differently on a second call")
        return problems


def check_selection(out, inst, sel) -> tuple[list[str], str]:
    """Checks on one pipeline result against the selection rule."""
    scores = np.asarray(out.retrieved.scores, dtype=np.float64)
    chosen = list(out.retrieved.selected)
    problems = []
    if scores.shape != (len(inst.pool),):
        problems.append(f"{scores.shape} scores for a pool of {len(inst.pool)}")
    elif not (np.all(np.isfinite(scores)) and np.all((scores > 0) & (scores < 1))):
        problems.append("non-finite logit")
    if not chosen:
        problems.append("empty selection")
    if len(chosen) > sel.k:
        problems.append(f"{len(chosen)} contexts kept, k is {sel.k}")
    if problems:
        return problems, ""
    best = scores.max()
    if any(scores[j] < sel.tau * best for j in chosen):
        problems.append("kept a context below tau * best")
    if any((scores[a], -a) < (scores[b], -b) for a, b in zip(chosen, chosen[1:])):
        problems.append("selection not in descending score order")
    expected = sorted((j for j in range(len(scores)) if scores[j] >= sel.tau * best),
                      key=lambda j: (-scores[j], j))[:sel.k]
    if chosen != expected:
        problems.append(f"selected {chosen}, the rule selects {expected}")
    if out.selected_ids != [inst.pool[j].id for j in chosen]:
        problems.append("selected ids do not match selected indices")
    return problems, f"{inst.qid}|{','.join(out.selected_ids)}|{out.answer}"
