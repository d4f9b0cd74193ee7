"""Optimization and the staged training procedures.

AdamW with decoupled weight decay (``WEIGHT_DECAY`` on weight matrices)
and a no-warmup cosine schedule drives every procedure. A phase states
what it trains in one map from parameter name to base learning rate,
``param_lrs``, which folds in the vision encoder's layer-wise decay by
``VISION_LLRD_FACTOR`` per layer; ``AdamW`` trains exactly the tensors the
map names. Freezing is total: a frozen tensor receives no gradient, holds
no optimizer state, and is bit-identical after training.

Stages: (1) vision encoder alone on caption pairs, (2) vision encoder and
language model jointly on richer captions, (3) language model alone on
visual question-answer triples. A stage trains exactly the components its
config gives a learning rate. Fine-tuning (reranker head or answer
generator) always keeps the vision encoder frozen.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from fusionqa.config import FinetuneConfig, StageConfig
from fusionqa.documents import Document, PretrainSample, QaInstance
from fusionqa.generator import qa_input, qa_loss
from fusionqa.model import MultimodalTransformer, encode_multimodal
from fusionqa.reranker import build_training_batch, reranker_loss, score
from fusionqa.tensor import Rng, Tensor, backward
from fusionqa.tokenizer import assemble_qa_input, pad_sequences


VISION_LLRD_FACTOR = 0.5


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr to zero, no warmup."""
    if total_steps <= 0:
        raise ValueError("cosine_lr: total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


WEIGHT_DECAY = 0.05
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MAX_GRAD_NORM = 1.0


def decay_allowed(name: str) -> bool:
    """Weight decay applies to weight matrices only: not biases, not
    layer-norm affine parameters, not embedding tables."""
    leaf = name.rsplit(".", 1)[-1]
    return not (leaf == "gamma" or leaf.startswith("b") or leaf == "pos_emb"
                or name == "lm.embed")


def param_lrs(model, rates: dict[str, float | None]) -> dict[str, float]:
    """Each trained parameter's base learning rate, by name. ``rates`` maps
    a component (``"vision"``, ``"lm"``, ``"cls_head"``) to its base rate;
    one that is absent or None stays frozen. The vision encoder's rate
    decays by ``VISION_LLRD_FACTOR`` per layer below the top: the patch
    projection and ``pos_emb`` sit at depth 0, the final norm at the top."""
    top = model.config.lm.n_layers - 1
    lrs = {}
    for name in model.params:
        component, _, rest = name.partition(".")
        rate = rates.get(component)
        if rate is None:
            continue
        if component == "vision":
            if rest.startswith("layer"):
                depth = int(rest.split(".", 1)[0][len("layer"):])
            elif rest.startswith(("patch_proj", "pos_emb")):
                depth = 0
            else:
                depth = top
            rate = rate * VISION_LLRD_FACTOR ** (top - depth)
        lrs[name] = rate
    return lrs


class AdamW:
    """Bias-corrected Adam with decoupled (multiplicative) weight decay.

    It trains exactly the parameters that ``lrs`` (name -> base rate, see
    ``param_lrs``) names: it sets ``requires_grad`` to ``name in lrs`` on
    every parameter of ``model``, and only those tensors get state. A
    tensor whose grad is None in a step is skipped entirely.
    """

    def __init__(self, model, lrs: dict[str, float]):
        self.t = 0
        self.entries = []  # (tensor, base lr, takes weight decay, m, v)
        for name, p in model.params.items():
            p.requires_grad = name in lrs
            if p.requires_grad:
                self.entries.append((p, lrs[name], decay_allowed(name),
                                     np.zeros_like(p.data), np.zeros_like(p.data)))

    def step(self, lr_factor: float = 1.0):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, base_lr, decay, m, v in self.entries:
            if p.grad is None:
                continue
            lr = base_lr * lr_factor
            grad = p.grad.astype(p.data.dtype, copy=False)
            if decay:
                p.data *= 1.0 - lr * WEIGHT_DECAY
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_global_norm(model) -> float:
    """Scale all gradients so their joint L2 norm is at most MAX_GRAD_NORM."""
    sq = 0.0
    grads = [p.grad for p in model.params.values() if p.grad is not None]
    for g in grads:
        sq += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq)
    if norm > MAX_GRAD_NORM and norm > 0:
        factor = MAX_GRAD_NORM / norm
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


def _train(model, opt, items, batch, epochs, rng, tag, lr, step_loss, phase):
    """The loop every phase shares; returns the (step, lr, loss, grad norm)
    trace, the norm taken before clipping. ``phase`` names the phase in
    errors.

    Each epoch visits ``items`` in a fresh permutation, ``batch`` at a time.
    A step zeroes the gradients, back-propagates the step's loss once, clips
    the global norm and takes one AdamW step at the cosine factor.
    ``step_loss(members, step_rng)`` returns the scalar loss of the step's
    members as one graph: the mean over members of each member's loss. The
    rng streams are ``{tag}/epoch{e}`` and ``{tag}/step{i}``; each phase
    derives any per-member streams itself.
    """
    if not items:
        raise ValueError(f"{phase}: no training items, so nothing to train")
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
    enc = encode_multimodal(model, pad_sequences(seqs), [s.image for s in samples], rng=rng)
    targets = pad_sequences([vocab.encode(s.target) for s in samples]).ids
    return qa_loss(model, enc, targets, rng=rng)


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

    opt = AdamW(model, param_lrs(model, {"vision": stage.ve_lr, "lm": stage.lm_lr}))
    primary_lr = stage.lm_lr if stage.lm_lr is not None else stage.ve_lr

    return _train(model, opt, corpus, stage.global_batch, stage.epochs, rng,
                  f"stage{stage.stage}", primary_lr, partial(_pretrain_loss, model, vocab),
                  f"stage {stage.stage} pretraining")


def _rerank_loss(model, vocab, insts: list[QaInstance], rng, image_loader, batch) -> Tensor:
    """One reranker fine-tune step's loss on its one question: the supporting
    documents and distractors up to ``batch`` documents (drawn from ``rng``'s
    stream ``batch``), scored in one encoder pass that draws its dropout from
    the stream ``docs``."""
    (inst,) = insts
    docs, labels = build_training_batch(inst.pool, batch, rng.child("batch"))
    logits = score(model, vocab, inst.question, docs, image_loader=image_loader,
                   rng=rng.child("docs"))
    return reranker_loss(logits, labels)


def finetune_reranker(model, vocab, dataset: list[QaInstance], cfg: FinetuneConfig,
                      rng: Rng, image_loader=None) -> list[tuple[int, float, float, float]]:
    """Fine-tune the relevance scorer, one question per step; ``global_batch``
    is the number of pool documents scored per question, all in one encoder
    pass. The vision encoder stays frozen."""
    opt = AdamW(model, param_lrs(model, {"lm": cfg.lr, "cls_head": cfg.lr}))
    step_loss = partial(_rerank_loss, model, vocab, image_loader=image_loader,
                        batch=cfg.global_batch)
    return _train(model, opt, dataset, 1, cfg.epochs, rng, "rr", cfg.lr, step_loss,
                  "reranker fine-tune")


def _qa_train_contexts(inst: QaInstance, extra_distractors: int, rng: Rng) -> list[Document]:
    """Gold supporting documents first, then a few sampled distractors, to
    mirror what the reranker hands the generator at inference time."""
    gold_ids = set(inst.gold_ids)
    gold = [d for d in inst.pool if d.id in gold_ids]
    rest = [d for d in inst.pool if d.id not in gold_ids]
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
    enc = encode_multimodal(model, pad_sequences(seqs), images, rng=rng)
    targets = pad_sequences([vocab.encode(inst.answers[0]) for inst in insts]).ids
    return qa_loss(model, enc, targets, rng=rng)


def finetune_qa(model, vocab, dataset: list[QaInstance], cfg: FinetuneConfig,
                rng: Rng, image_loader=None, extra_distractors: int = 0
                ) -> list[tuple[int, float, float, float]]:
    """Fine-tune the generator on gold contexts; vision encoder stays frozen."""
    if extra_distractors < 0:
        raise ValueError(f"extra_distractors must be >= 0, got {extra_distractors}")
    opt = AdamW(model, param_lrs(model, {"lm": cfg.lr}))
    step_loss = partial(_answer_loss, model, vocab, image_loader=image_loader,
                        extra_distractors=extra_distractors)
    return _train(model, opt, dataset, cfg.global_batch, cfg.epochs, rng, "qa",
                  cfg.lr, step_loss, "QA fine-tune")


def write_trace_csv(trace, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,lr,loss,grad_norm\n")
        for step, lr, loss, grad_norm in trace:
            fh.write(f"{step},{lr:.10g},{loss:.10g},{grad_norm:.10g}\n")
