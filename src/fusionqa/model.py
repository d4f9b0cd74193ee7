"""The multimodal backbone: token embedding, image-embedding injection,
encoder-decoder language model, and the output projection head.

Injection is the architectural point: the vision encoder and the language
model share one hidden width, so image embeddings replace the placeholder
rows of the text embedding matrix directly, with no projection between the
two spaces. Each run of ``<img>`` ids in the token sequence, the one
record of where an image goes, takes one image's ``n_img_tokens`` rows.
Everything downstream treats the fused matrix as an ordinary input sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fusionqa.config import ModelConfig
from fusionqa.tensor import (
    Rng,
    Tensor,
    add,
    attention,
    concat,
    dropout,
    embedding_lookup,
    gelu,
    grad_enabled,
    layer_norm,
    linear,
    no_grad,
    reshape,
    slice_,
    take_rows,
    transpose,
)
from fusionqa.tokenizer import IMG_ID, PAD_ID, TokenSequence, pad_sequences


@dataclass
class EncoderStates:
    states: Tensor  # (B, L, d)
    attention_mask: np.ndarray  # (B, L)


@dataclass
class DecoderCache:
    """Incremental-decoding state for one encoder output; inference only.

    ``kv`` maps each decoder attention prefix to its (B, ., 2d) keys and
    values: a self-attention's (B, max_len, 2d) buffer, which each call writes
    at its positions and reads as a view up to them, or a cross-attention's
    projection of the encoder states, made once. ``length`` counts the
    decoder positions run so far.
    """

    length: int = 0
    kv: dict = field(default_factory=dict)

    def write(self, prefix, kv: Tensor, max_len: int) -> Tensor:
        """Keys and values of every position so far: the cached ones, then
        the (B, T, 2d) ``kv`` of the positions after ``length``, which is
        written in place into ``prefix``'s buffer."""
        if prefix not in self.kv:
            self.kv[prefix] = np.empty(kv.shape[:-2] + (max_len, kv.shape[-1]), kv.dtype)
        buf = self.kv[prefix]
        end = self.length + kv.shape[-2]
        buf[..., self.length:end, :] = kv.data
        return Tensor._wrap(buf[..., :end, :])


# A layer's attentions in running order, read by the layout and the forward:
# attention i runs behind norm{i}, the MLP behind norm{len(attns) + 1}.
ENCODER_ATTNS = ("attn",)
DECODER_ATTNS = ("self_attn", "cross_attn")


def parameter_shapes(config: ModelConfig):
    """(name, shape) of every parameter, lazily, without allocating
    anything, in the order ``model.params`` keeps: gradient clipping sums
    squares in that order, so reordering changes training bits."""
    d = config.lm.hidden_size
    v = config.vision
    lm = config.lm

    def stack(prefix, n_positions, attns):
        yield f"{prefix}.pos_emb", (n_positions, d)
        for i in range(lm.n_layers):
            layer = f"{prefix}.layer{i}"
            for attn in attns:
                for w, width in (("wq", d), ("wkv", 2 * d), ("wo", d)):
                    yield f"{layer}.{attn}.{w}", (d, width)
                for b in ("bq", "bv", "bo"):
                    yield f"{layer}.{attn}.{b}", (d,)
            yield f"{layer}.mlp.w1", (d, 4 * d)
            yield f"{layer}.mlp.b1", (4 * d,)
            yield f"{layer}.mlp.w2", (4 * d, d)
            yield f"{layer}.mlp.b2", (d,)
            for n in range(1, len(attns) + 2):
                yield f"{layer}.norm{n}.gamma", (d,)
                yield f"{layer}.norm{n}.beta", (d,)
        yield f"{prefix}.final_norm.gamma", (d,)
        yield f"{prefix}.final_norm.beta", (d,)

    yield "vision.patch_proj.weight", (v.patch_size * v.patch_size * 3, d)
    yield "vision.patch_proj.bias", (d,)
    yield from stack("vision", v.n_patches, ENCODER_ATTNS)
    yield "lm.embed", (lm.vocab_size, d)
    yield from stack("lm.encoder", lm.max_len, ENCODER_ATTNS)
    yield from stack("lm.decoder", lm.max_len, DECODER_ATTNS)

    yield "lm.head.w_o", (lm.vocab_size, d)
    yield "lm.head.b_o", (lm.vocab_size,)

    yield "cls_head.w1", (d, d)
    yield "cls_head.b1", (d,)
    yield "cls_head.w2", (1, d)
    yield "cls_head.b2", (1,)


def _init_value(name: str, shape, rng: Rng, dtype):
    if name.endswith(".gamma"):
        return np.ones(shape, dtype=dtype)
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith("b"):  # biases and layer-norm betas
        return np.zeros(shape, dtype=dtype)
    if leaf == "wkv":  # format 4's separate wk and wv draws, side by side
        return np.hstack([_init_value(name[:-2] + w, shape[:1] * 2, rng, dtype) for w in "kv"])
    return rng.child(f"init/{name}").truncated_normal(shape, std=0.02).astype(dtype)


class MultimodalTransformer:
    """Configured backbone plus task heads, with per-tensor trainability."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.dtype = next(iter(params.values())).data.dtype if params else np.float32
        # (digest, weight bytes) of the vision encoder, kept by vision.image_rows
        self._vision_key = None

    @classmethod
    def build(cls, config: ModelConfig, rng: Rng, dtype=np.float32) -> "MultimodalTransformer":
        params = {
            name: Tensor(_init_value(name, shape, rng, dtype), requires_grad=True, dtype=dtype)
            for name, shape in parameter_shapes(config)
        }
        return cls(config, params)

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None


def _layer_norm_named(model, prefix, x):
    return layer_norm(x, model.params[f"{prefix}.gamma"], model.params[f"{prefix}.beta"])


def multi_head_attention(model, prefix, x, kv=None, mask=None, rng=None, cache=None):
    """Scaled dot-product attention over h = ``lm.n_heads`` heads from ``x``
    to ``kv`` (``x`` itself, self-attention, when None); additive pre-softmax mask.

    Inputs are (..., L, d); a mask is a suffix of the (..., h, Lq, Lk)
    scores, or a (B, 1, 1, Lk) per-row key mask. One (d, 2d) ``wkv``
    projects keys and values with no key bias, which the softmax cancels.

    A ``cache`` (a DecoderCache, inference only) holds the keys and values
    under ``prefix``: self-attention writes this call's positions after its
    ``length``, and a given ``kv`` is projected once per cache.
    """
    p = model.params
    q = linear(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    w = p[f"{prefix}.wkv"]
    if cache is None:
        kv = linear(x if kv is None else kv, w)
    elif kv is None:
        kv = cache.write(prefix, linear(x, w), model.config.lm.max_len)
    elif prefix not in cache.kv:
        kv = cache.kv[prefix] = linear(kv, w)
    else:
        kv = cache.kv[prefix]
    n_heads = model.config.lm.n_heads
    ctx = attention(q, kv, p[f"{prefix}.bv"], n_heads, 1.0 / math.sqrt(x.shape[-1] // n_heads),
                    mask, rate=model.config.lm.dropout_rate, rng=rng)
    return linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _mlp(model, prefix, x, rng):
    p = model.params
    h = gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    h = dropout(h, model.config.lm.dropout_rate, rng=rng)
    return linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def transformer_block(model, prefix, x, attns, rng=None, cache=None):
    """Pre-norm residual layer: each attention of ``attns``, ordered (name,
    kv, mask) triples, behind ``norm{i}`` (i from 1) and dropout, then the
    MLP behind ``norm{len(attns) + 1}`` and dropout."""
    rate = model.config.lm.dropout_rate
    for i, (name, kv, mask) in enumerate(attns, 1):
        normed = _layer_norm_named(model, f"{prefix}.norm{i}", x)
        attn = multi_head_attention(model, f"{prefix}.{name}", normed, kv=kv, mask=mask,
                                    rng=rng, cache=cache)
        x = add(x, dropout(attn, rate, rng=rng))
    normed = _layer_norm_named(model, f"{prefix}.norm{len(attns) + 1}", x)
    return add(x, dropout(_mlp(model, f"{prefix}.mlp", normed, rng), rate, rng=rng))


def run_stack(model, prefix, x, pos, attns, rng=None, cache=None):
    """The vision encoder, LM encoder or LM decoder under ``prefix``: inputs
    ``x`` plus their position rows ``pos``, dropout, the ``lm.n_layers``
    ``transformer_block``s over ``attns``, then ``{prefix}.final_norm``."""
    x = dropout(add(x, pos), model.config.lm.dropout_rate, rng=rng)
    for i in range(model.config.lm.n_layers):
        x = transformer_block(model, f"{prefix}.layer{i}", x, attns, rng=rng, cache=cache)
    return _layer_norm_named(model, f"{prefix}.final_norm", x)


def key_padding_mask(attention_mask, dtype) -> Tensor | None:
    """Additive (B, 1, 1, L) mask (-inf at padded keys) for a (B, L)
    attention mask, or None when nothing is padded. A sequence with every
    key padded raises: its softmax would be all NaN.
    """
    m = np.asarray(attention_mask) != 0
    if m.all():
        return None
    empty = np.flatnonzero(~m.any(axis=-1))
    if empty.size:
        raise ValueError(f"key_padding_mask: row {int(empty[0])} has every key masked")
    return Tensor._wrap(np.where(m, 0.0, -np.inf).astype(dtype)[:, None, None, :])


def causal_mask(length, dtype, offset=0) -> Tensor | None:
    """Additive mask letting query i (position offset + i) see keys 0..offset + i,
    or None when no key is hidden (a single query)."""
    if length == 1:
        return None
    m = np.triu(np.full((length, offset + length), -np.inf, dtype=dtype), k=offset + 1)
    return Tensor._wrap(m)


def inject(text_emb: Tensor, image_embs, slots) -> Tensor:
    """Replace placeholder rows with image embedding rows (no projection).

    ``text_emb`` is (B, L, d) and ``slots`` its (B, L) placeholder mask;
    the rows of ``image_embs``, taken in order, fill the slots in row-major
    order. Every other position keeps its text row; inputs are left
    untouched. The text and image rows are concatenated once and the fused
    matrix is one gather from them; no row is gathered twice.
    """
    image_embs = list(image_embs)
    targets = np.flatnonzero(slots)
    n_img = sum(emb.shape[0] for emb in image_embs)
    if len(targets) != n_img:
        raise ValueError(f"inject: {n_img} image rows for {len(targets)} placeholders")
    if not image_embs:
        return text_emb
    d = text_emb.shape[-1]
    n_text = text_emb.size // d
    index = np.arange(n_text)
    index[targets] = n_text + np.arange(n_img)
    return take_rows(concat([reshape(text_emb, (n_text, d))] + image_embs, axis=0),
                     index.reshape(text_emb.shape[:-1]))


def encode_multimodal(model, seq, images=(), rng=None) -> EncoderStates:
    """Embed a padded TokenBatch in one pass, encode its images and inject
    them into its ``<img>`` runs (one image per run, row by row), and run
    the language-model encoder over the fused (B, L, d) sequence. A lone
    TokenSequence runs as a batch of one.
    """
    # vision imports this module, so the name is looked up at call time
    from fusionqa.vision import image_rows

    if isinstance(seq, TokenSequence):
        seq = pad_sequences([seq])
    images = list(images)
    # a <pad> after each row keeps the runs of adjacent rows apart
    padded = np.full((len(seq.ids), seq.ids.shape[-1] + 1), PAD_ID)
    padded[:, :-1] = seq.ids
    runs = [n for _, n in TokenSequence(padded.ravel()).image_spans]
    n_img = model.config.n_img_tokens
    if len(runs) != len(images) or any(n != n_img for n in runs):
        raise ValueError(f"<img> runs of lengths {runs} do not fit {len(images)} "
                         f"images of {n_img} rows")
    cfg = model.config.lm
    length = seq.ids.shape[-1]
    if np.shape(seq.attention_mask) != seq.ids.shape:
        raise ValueError("encode: attention mask length differs from sequence length")
    if length > cfg.max_len:
        raise ValueError(f"encode: sequence length {length} exceeds max_len {cfg.max_len}")
    mask = key_padding_mask(seq.attention_mask, model.dtype)
    x = inject(embedding_lookup(model.params["lm.embed"], seq.ids),
               image_rows(model, images, rng=rng), seq.ids == IMG_ID)
    x = run_stack(model, "lm.encoder", x,
                  slice_(model.params["lm.encoder.pos_emb"], (slice(0, length),)),
                  [(name, None, mask) for name in ENCODER_ATTNS], rng=rng)
    return EncoderStates(x, np.asarray(seq.attention_mask))


def decoder_hidden(model, enc: EncoderStates, dec_input_ids, rng=None,
                   cache: DecoderCache | None = None) -> Tensor:
    """Decoder states (B, T, d) for (B, T) ``dec_input_ids`` over a batched
    encoder output, one row per sequence.

    Self-attention is causal only: right padding of the ids comes after
    every real position, so no real position sees it. Cross-attention skips
    the encoder's padded keys. With a cache the ids are the T positions
    after the ``cache.length`` already run, and their self-attention K/V are
    written into the cache. A cache serves inference only: its buffers are
    not on the tape, so it raises while grad recording is on."""
    cfg = model.config.lm
    ids = np.asarray(dec_input_ids, dtype=np.int64)
    if ids.shape[:-1] != enc.states.shape[:-2]:
        raise ValueError(
            f"decoder: ids {ids.shape} do not match encoder states {enc.states.shape}"
        )
    if enc.states.shape[-2] == 0:
        raise ValueError("decoder: empty encoder states")
    t_len = ids.shape[-1]
    if t_len == 0:
        raise ValueError("decoder: empty input")
    if cache is not None and grad_enabled():
        raise ValueError("decoder: a cache serves inference only; run it under no_grad")
    start = 0 if cache is None else cache.length
    if start + t_len > cfg.max_len:
        raise ValueError(f"decoder: input length {start + t_len} exceeds max_len {cfg.max_len}")
    attns = list(zip(DECODER_ATTNS, [None, enc.states],
                     [causal_mask(t_len, model.dtype, offset=start),
                      key_padding_mask(enc.attention_mask, model.dtype)]))
    hidden = run_stack(model, "lm.decoder", embedding_lookup(model.params["lm.embed"], ids),
                       slice_(model.params["lm.decoder.pos_emb"], (slice(start, start + t_len),)),
                       attns, rng=rng, cache=cache)
    if cache is not None:
        cache.length = start + t_len
    return hidden


def _lm_head(model, hidden: Tensor) -> Tensor:
    w_o = model.params["lm.head.w_o"]  # (V, d)
    return linear(hidden, transpose(w_o, (1, 0)), model.params["lm.head.b_o"])


def decoder_logits(model, enc: EncoderStates, dec_input_ids, rng=None) -> Tensor:
    """(B, T, V) pre-softmax logits under teacher forcing for (B, T) ids."""
    return _lm_head(model, decoder_hidden(model, enc, dec_input_ids, rng=rng))


def decode_step(model, enc: EncoderStates, ids, cache: DecoderCache) -> Tensor:
    """Pre-softmax logits (B, V) of each row's last position, for the (B, T)
    ``ids`` that follow the ``cache.length`` positions already run against
    ``enc``; a fresh ``DecoderCache()`` starts at the first position. Only
    the last position is projected to the vocabulary. Runs under ``no_grad``.
    """
    with no_grad():
        hidden = decoder_hidden(model, enc, ids, cache=cache)
        return _lm_head(model, slice_(hidden, (slice(None), -1)))
