"""Generative answering: teacher-forced cross-entropy and greedy decoding."""

from __future__ import annotations

import numpy as np

from fusionqa.config import GenerationConfig
from fusionqa.model import (
    DecoderCache,
    EncoderStates,
    decode_step,
    decoder_logits,
    encode_multimodal,
)
from fusionqa.tensor import Tensor, cross_entropy_logits, no_grad
from fusionqa.tokenizer import EOS_ID, PAD_ID, assemble_qa_input


def qa_loss(model, enc: EncoderStates, target_ids, rng=None) -> Tensor:
    """Mean negative log-likelihood of the target sequence under teacher
    forcing (decoder input is the target shifted right behind a pad start
    token); pad positions in the target are excluded from the average.

    (B, T) targets, right-padded with ``<pad>`` and decoded against a
    batched ``enc``, give the mean over rows of each row's mean NLL. A lone
    (T,) target is a batch of one.
    """
    target_ids = np.atleast_2d(np.asarray(target_ids, dtype=np.int64))
    if target_ids.size == 0:
        raise ValueError("qa_loss: empty target")
    start = np.full((len(target_ids), 1), PAD_ID)
    dec_input = np.concatenate([start, target_ids[:, :-1]], axis=1)
    logits = decoder_logits(model, enc, dec_input, rng=rng)
    mask = (target_ids != PAD_ID).astype(np.float64)
    return cross_entropy_logits(logits, target_ids, mask)


def check_max_new_tokens(model, cfg: GenerationConfig):
    """Raise unless ``cfg`` decodes within the model's decoder length: the
    start token and ``max_new_tokens`` positions must fit ``lm.max_len``."""
    max_len = model.config.lm.max_len
    if cfg.max_new_tokens >= max_len:
        raise ValueError(
            f"generate: max_new_tokens {cfg.max_new_tokens} must stay below the "
            f"decoder's max_len {max_len}"
        )


def generate_ids(model, enc: EncoderStates, cfg: GenerationConfig) -> list[int]:
    """Greedy decode until eos or the length limit; ties take the lowest id.

    One decoder cache serves the whole answer, so each step runs only the
    newest position.
    """
    check_max_new_tokens(model, cfg)
    cache = DecoderCache()
    ids = [PAD_ID]
    for _ in range(cfg.max_new_tokens):
        logits = decode_step(model, enc, [ids[-1:]], cache)
        nxt = int(np.argmax(logits.data[0]))
        if nxt == EOS_ID:
            break
        ids.append(nxt)
    return ids[1:]


def qa_input(model, vocab, question: str, contexts, image_loader=None):
    """The generator's input: the (TokenSequence, images) of prompt,
    question and ordered contexts, with the images of the image contexts
    that survive truncation."""
    contexts = list(contexts)
    seq = assemble_qa_input(
        vocab, question, contexts, model.config.n_img_tokens, model.config.lm.max_len)
    n_images = len(seq.image_spans)
    if n_images and image_loader is None:
        raise ValueError("contexts include images but no image loader given")
    image_docs = [d for d in contexts if d.modality == "image"]
    return seq, [image_loader(d) for d in image_docs[:n_images]]


def generate(model, vocab, question: str, contexts, cfg: GenerationConfig,
             image_loader=None) -> str:
    """Answer a question from ordered contexts (descending reranker score)."""
    seq, images = qa_input(model, vocab, question, contexts, image_loader)
    with no_grad():
        enc = encode_multimodal(model, seq, images)
        ids = generate_ids(model, enc, cfg)
    return vocab.decode(ids)
