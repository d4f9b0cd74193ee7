"""Cross-encoder relevance scoring and relative-threshold + top-k selection.

Each (question, document) pair is one cross-encoder input; a candidate pool
is padded into one batch and runs through the backbone encoder in one pass.
The hidden state at each pair's prepended <cls> position feeds a two-layer
scoring head. That is the only encoder row read, so the encoder's last
layer runs its queries, MLP and final norm at <cls> alone; its keys and
values still come from every position of the pair, so the state is the
full pass's. Raw logits are sigmoid-normalized, candidates below tau times
the best score are dropped, and at most k survivors are kept (ties to the
lower index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fusionqa.config import SelectionConfig
from fusionqa.documents import Document
from fusionqa.tensor import (
    Rng,
    Tensor,
    bce_with_logits,
    dropout,
    linear,
    reshape,
    sigmoid_np,
    slice_,
    tanh,
    transpose,
)
from fusionqa.tokenizer import IMG_ID, assemble_reranker_input, pad_sequences
from fusionqa.model import encode_multimodal


@dataclass
class RetrievedSet:
    """Normalized per-candidate scores and the selected candidate indices,
    in descending-score order (ties resolved toward the lower index)."""

    scores: np.ndarray
    selected: list[int]


def classifier_head(model, h: Tensor, rng=None) -> Tensor:
    """Relevance logits (N,) from the <cls> hidden states (N, d)."""
    p = model.params
    rate = model.config.lm.dropout_rate
    h = dropout(h, rate, rng=rng)
    z = tanh(linear(h, transpose(p["cls_head.w1"], (1, 0)), p["cls_head.b1"]))
    z = dropout(z, rate, rng=rng)
    y = linear(z, transpose(p["cls_head.w2"], (1, 0)), p["cls_head.b2"])
    return reshape(y, (h.shape[0],))


def score(model, vocab, question: str, docs: list[Document], image_loader=None,
          rng=None) -> Tensor:
    """Relevance logits (N,) of the question against each of N documents,
    from one encoder pass over the pairs padded into one batch."""
    docs = list(docs)
    if not docs:
        raise ValueError("score: no documents to score")
    batch = pad_sequences(
        assemble_reranker_input(vocab, question, doc, model.config.n_img_tokens,
                                model.config.lm.max_len) for doc in docs)
    images = []
    # one image per pair whose ids kept its <img> run
    for doc, has_image in zip(docs, (batch.ids == IMG_ID).any(axis=1)):
        if has_image:
            if image_loader is None:
                raise ValueError(f"document {doc.id} is an image but no image loader given")
            images.append(image_loader(doc))
    # <cls> is each pair's first token, and the only row the head reads
    enc = encode_multimodal(model, batch, images, rng=rng, positions=slice(0, 1))
    h = slice_(enc.states, (slice(None), 0))
    return classifier_head(model, h, rng=rng)


def select_contexts(logits, cfg: SelectionConfig) -> RetrievedSet:
    """Sigmoid-normalize, keep scores >= tau * max, then truncate to top-k.

    A non-finite logit raises: a NaN would otherwise make the cutoff NaN and
    silently select nothing."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("select_contexts: need a non-empty 1-D candidate list")
    bad = np.flatnonzero(~np.isfinite(logits))
    if bad.size:
        raise ValueError(
            f"select_contexts: candidate {int(bad[0])} has non-finite score {logits[bad[0]]}"
        )
    scores = sigmoid_np(logits)
    cutoff = cfg.tau * scores.max()
    order = np.lexsort((np.arange(len(scores)), -scores))
    selected = [int(i) for i in order if scores[i] >= cutoff][: cfg.k]
    return RetrievedSet(scores=scores, selected=selected)


def reranker_loss(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over a candidate batch, from (N,) raw logits."""
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ValueError(
            f"reranker_loss: {logits.shape} logits vs {labels.shape} labels"
        )
    return bce_with_logits(logits, labels)


def build_training_batch(pool: list[Document], batch_size: int, rng: Rng):
    """All supporting documents plus sampled distractors, deterministically.

    Returns (documents, labels). Raises when the pool has no positive.
    """
    positives = [d for d in pool if d.label == "supporting"]
    distractors = [d for d in pool if d.label != "supporting"]
    if not positives:
        raise ValueError("training pool contains no supporting document")
    n_dist = min(len(distractors), max(0, batch_size - len(positives)))
    chosen = []
    if n_dist:
        idx = sorted(rng.sample_indices(len(distractors), n_dist).tolist())
        chosen = [distractors[i] for i in idx]
    docs = positives + chosen
    labels = np.array([1.0] * len(positives) + [0.0] * len(chosen))
    return docs, labels
