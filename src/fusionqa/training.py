"""Optimization and the staged training procedures.

AdamW with decoupled weight decay and a no-warmup cosine schedule drives
every procedure. The vision encoder gets layer-wise learning-rate decay
(top layer fastest; patch projection and positional embeddings join the
bottom group). Freezing is total: a frozen tensor receives no gradient,
holds no optimizer state, and is bit-identical after training.

Stages: (1) vision encoder alone on caption pairs, (2) vision encoder and
language model jointly on richer captions, (3) language model alone on
visual question-answer triples. Fine-tuning (reranker head or answer
generator) always keeps the vision encoder frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from fusionqa.config import FinetuneConfig, StageConfig
from fusionqa.documents import Document, PretrainSample, QaInstance
from fusionqa.generator import qa_input, qa_loss
from fusionqa.model import MultimodalTransformer, encode_multimodal
from fusionqa.reranker import build_training_batch, reranker_loss, score
from fusionqa.tensor import Rng, Tensor, backward
from fusionqa.tokenizer import assemble_qa_input, pad_sequences


def llrd_rates(base_lr: float, factor: float, n_layers: int) -> list[float]:
    """Per-layer learning rates, bottom (index 0) to top: base * factor^depth."""
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"llrd factor must lie in (0, 1], got {factor}")
    if n_layers < 1:
        raise ValueError("llrd needs at least one layer")
    return [base_lr * factor ** (n_layers - 1 - i) for i in range(n_layers)]


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr to zero, no warmup."""
    if total_steps <= 0:
        raise ValueError("cosine_lr: total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


_NO_DECAY_LEAVES = ("gamma", "beta")


def decay_allowed(name: str) -> bool:
    """Weight decay applies to weight matrices only: not biases, not
    layer-norm affine parameters, not embedding tables."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in _NO_DECAY_LEAVES or leaf.startswith("b"):
        return False
    if name == "lm.embed" or leaf == "pos_emb":
        return False
    return True


@dataclass
class ParamGroup:
    names: list[str]
    tensors: list[Tensor]
    base_lr: float
    weight_decay: float


def vision_param_groups(model, base_lr: float, factor: float, weight_decay: float) -> list[ParamGroup]:
    """LLRD groups partitioning the vision encoder exactly once."""
    n_layers = model.config.vision.n_layers
    rates = llrd_rates(base_lr, factor, n_layers)
    buckets = {i: [] for i in range(n_layers)}
    for name in model.params:
        if not name.startswith("vision."):
            continue
        if name.startswith("vision.layer"):
            layer = int(name.split(".")[1][len("layer"):])
            buckets[layer].append(name)
        elif name.startswith(("vision.patch_proj", "vision.pos_emb")):
            buckets[0].append(name)
        else:  # final norm rides with the top layer
            buckets[n_layers - 1].append(name)
    groups = []
    for i in range(n_layers):
        names = sorted(buckets[i])
        groups.append(ParamGroup(names, [model.params[n] for n in names], rates[i], weight_decay))
    return groups


def lm_param_group(model, base_lr: float, weight_decay: float,
                   include_cls_head=False) -> ParamGroup:
    names = sorted(
        n for n in model.params
        if n.startswith("lm.") or (include_cls_head and n.startswith("cls_head."))
    )
    return ParamGroup(names, [model.params[n] for n in names], base_lr, weight_decay)


class AdamW:
    """Bias-corrected Adam with decoupled (multiplicative) weight decay.

    Only trainable tensors get state; tensors whose grad is None in a step
    are skipped entirely.
    """

    def __init__(self, groups: list[ParamGroup], beta1=0.9, beta2=0.999, eps=1e-8):
        self.groups = [g for g in groups if g.tensors]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.moments = {}
        for g in self.groups:
            for name, p in zip(g.names, g.tensors):
                if p.requires_grad:
                    self.moments[name] = (
                        np.zeros_like(p.data),
                        np.zeros_like(p.data),
                    )

    def step(self, lr_factor: float = 1.0):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for g in self.groups:
            lr = g.base_lr * lr_factor
            for name, p in zip(g.names, g.tensors):
                if not p.requires_grad or p.grad is None:
                    continue
                grad = p.grad.astype(p.data.dtype, copy=False)
                m, v = self.moments[name]
                if g.weight_decay and decay_allowed(name):
                    p.data *= 1.0 - lr * g.weight_decay
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_global_norm(model, max_norm: float = 1.0) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    sq = 0.0
    grads = [p.grad for p in model.params.values() if p.grad is not None]
    for g in grads:
        sq += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def clone_model(model) -> MultimodalTransformer:
    params = {
        n: Tensor(p.data.copy(), requires_grad=p.requires_grad, dtype=p.data.dtype)
        for n, p in model.params.items()
    }
    return MultimodalTransformer(model.config, params)


_STAGE_KIND = {1: "caption", 2: "caption", 3: "vqa"}
_STAGE_PREFIXES = {"VE": ("vision.",), "VE+LM": ("vision.", "lm."), "LM": ("lm.",)}


def _train(model, opt, items, batch, epochs, rng, tag, lr, step_loss):
    """The loop every phase shares; returns the (step, lr, loss, grad norm)
    trace, the norm taken before clipping.

    Each epoch visits ``items`` in a fresh permutation, ``batch`` at a time.
    A step zeroes the gradients, back-propagates the step's loss once, clips
    the global norm and takes one AdamW step at the cosine factor.
    ``step_loss(members, step_rng)`` returns the scalar loss of the step's
    members as one graph: the mean over members of each member's loss. The
    rng streams are ``{tag}/epoch{e}`` and ``{tag}/step{i}``; each phase
    derives any per-member streams itself.
    """
    n_batches = math.ceil(len(items) / batch)
    total_steps = epochs * n_batches
    trace = []
    step_idx = 0
    for epoch in range(epochs):
        order = rng.child(f"{tag}/epoch{epoch}").permutation(len(items))
        for b in range(n_batches):
            members = [items[int(idx)] for idx in order[b * batch:(b + 1) * batch]]
            step_rng = rng.child(f"{tag}/step{step_idx}")
            model.zero_grads()
            loss = step_loss(members, step_rng)
            backward(loss)
            grad_norm = clip_global_norm(model)
            factor = cosine_lr(step_idx, total_steps, 1.0)
            opt.step(factor)
            trace.append((step_idx, lr * factor, loss.item(), grad_norm))
            step_idx += 1
    return trace


def _image_doc() -> Document:
    return Document(id="_pretrain_image", modality="image", image_path="<memory>")


def _pretrain_loss(model, vocab, samples: list[PretrainSample], rng):
    """One stage step's loss: the samples padded into one batch, one encoder
    pass and one decoder pass."""
    seqs = []
    for sample in samples:
        # vqa samples share the answer generator's instruction prompt so the
        # stage-3 skills transfer to fine-tuning unchanged
        instruction = None if sample.kind == "vqa" else ""
        seqs.append(assemble_qa_input(
            vocab, sample.prompt, [_image_doc()], model.config.n_img_tokens,
            model.config.lm.max_len, prompt=instruction,
        ))
    enc = encode_multimodal(model, pad_sequences(seqs), [s.image for s in samples],
                            train=True, rng=rng)
    targets = pad_sequences([vocab.encode(s.target) for s in samples]).ids
    return qa_loss(model, enc, targets, train=True, rng=rng)


def _stage_optimizer(model, stage: StageConfig) -> AdamW:
    groups = []
    if stage.ve_lr is not None:
        groups.extend(
            vision_param_groups(model, stage.ve_lr, stage.ve_llrd_factor, stage.weight_decay)
        )
    if stage.lm_lr is not None:
        groups.append(lm_param_group(model, stage.lm_lr, stage.weight_decay))
    return AdamW(groups)


def run_pretrain_stage(model, vocab, stage: StageConfig, corpus: list[PretrainSample],
                       rng: Rng) -> list[tuple[int, float, float, float]]:
    """Train one stage in place; returns the (step, lr, loss, grad norm) trace.

    Only the stage's trainable component changes; everything else is frozen
    and stays bit-identical.
    """
    expected_kind = _STAGE_KIND[stage.stage]
    for s in corpus:
        if s.kind != expected_kind:
            raise ValueError(
                f"stage {stage.stage} expects {expected_kind!r} samples, got {s.kind!r}"
            )
    if not corpus:
        raise ValueError("pretraining corpus is empty")

    model.set_trainable(_STAGE_PREFIXES[stage.trainable])
    opt = _stage_optimizer(model, stage)
    primary_lr = stage.lm_lr if stage.lm_lr is not None else stage.ve_lr

    return _train(model, opt, corpus, max(1, stage.global_batch), stage.epochs, rng,
                  f"stage{stage.stage}", primary_lr, partial(_pretrain_loss, model, vocab))


def finetune_reranker(model, vocab, dataset: list[QaInstance], cfg: FinetuneConfig,
                      rng: Rng, image_loader=None) -> list[tuple[int, float, float, float]]:
    """Fine-tune the relevance scorer, one question per step; ``global_batch``
    is the number of pool documents scored per question, all in one encoder
    pass. The vision encoder stays frozen."""
    if cfg.task != "reranker":
        raise ValueError(f"expected a reranker config, got task {cfg.task!r}")
    model.set_trainable(("lm.", "cls_head."))
    opt = AdamW([lm_param_group(model, cfg.lr, cfg.weight_decay, include_cls_head=True)])

    def step_loss(insts, step_rng):
        (inst,) = insts
        docs, labels = build_training_batch(inst.pool, cfg.global_batch,
                                            step_rng.child("batch"))
        logits = score(model, vocab, inst.question, docs, image_loader=image_loader,
                       train=True, rng=step_rng.child("docs"))
        return reranker_loss(logits, labels)

    return _train(model, opt, dataset, 1, cfg.epochs, rng, "rr", cfg.lr, step_loss)


def _qa_train_contexts(inst: QaInstance, extra_distractors: int, rng: Rng) -> list[Document]:
    """Gold supporting documents first, then a few sampled distractors, to
    mirror what the reranker hands the generator at inference time."""
    gold = [d for d in inst.pool if d.id in set(inst.gold_ids)]
    rest = [d for d in inst.pool if d.id not in set(inst.gold_ids)]
    n = min(extra_distractors, len(rest))
    extra = []
    if n:
        idx = sorted(rng.sample_indices(len(rest), n).tolist())
        extra = [rest[i] for i in idx]
    return gold + extra


def _answer_loss(model, vocab, insts: list[QaInstance], rng, image_loader,
                 extra_distractors) -> Tensor:
    """One QA fine-tune step's loss: each question with its gold contexts and
    distractors (drawn from ``rng``'s stream ``x{j}/ctx`` for member j),
    padded into one batch for one encoder and one decoder pass."""
    seqs, images = [], []
    for j, inst in enumerate(insts):
        contexts = _qa_train_contexts(inst, extra_distractors, rng.child(f"x{j}").child("ctx"))
        seq, imgs = qa_input(model, vocab, inst.question, contexts, image_loader)
        seqs.append(seq)
        images.extend(imgs)
    enc = encode_multimodal(model, pad_sequences(seqs), images, train=True, rng=rng)
    targets = pad_sequences([vocab.encode(inst.answers[0]) for inst in insts]).ids
    return qa_loss(model, enc, targets, train=True, rng=rng)


def finetune_qa(model, vocab, dataset: list[QaInstance], cfg: FinetuneConfig,
                rng: Rng, image_loader=None, extra_distractors: int = 0
                ) -> list[tuple[int, float, float, float]]:
    """Fine-tune the generator on gold contexts; vision encoder stays frozen."""
    if cfg.task != "qa":
        raise ValueError(f"expected a qa config, got task {cfg.task!r}")
    model.set_trainable(("lm.",))
    opt = AdamW([lm_param_group(model, cfg.lr, cfg.weight_decay)])

    step_loss = partial(_answer_loss, model, vocab, image_loader=image_loader,
                        extra_distractors=extra_distractors)
    return _train(model, opt, dataset, max(1, cfg.global_batch), cfg.epochs, rng, "qa",
                  cfg.lr, step_loss)


def write_trace_csv(trace, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,lr,loss,grad_norm\n")
        for step, lr, loss, grad_norm in trace:
            fh.write(f"{step},{lr:.10g},{loss:.10g},{grad_norm:.10g}\n")
