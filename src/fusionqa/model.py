"""The multimodal backbone: token embedding, image-embedding injection,
encoder-decoder language model, and the output projection head.

Injection is the architectural point: the vision encoder and the language
model share one hidden width, so image embeddings replace the placeholder
rows of the text embedding matrix directly, with no projection between the
two spaces. Everything downstream treats the fused matrix as an ordinary
input sequence.
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
    attention_probs,
    concat,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    matmul,
    reshape,
    slice_,
    take_rows,
    transpose,
)


@dataclass
class EncoderStates:
    states: Tensor  # (L, d) or (B, L, d)
    attention_mask: np.ndarray


@dataclass
class DecoderCache:
    """Incremental-decoding state for one question (one encoder output).

    ``kv`` maps each decoder attention prefix to its (keys, values), each
    (heads, L, dh): self-attention grows by the positions of every call,
    cross-attention is projected from the encoder states once. ``length``
    counts the decoder positions run so far.
    """

    length: int = 0
    kv: dict = field(default_factory=dict)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape for every parameter, without allocating anything."""
    d = config.lm.hidden_size
    v = config.vision
    lm = config.lm
    shapes = {}

    def block(prefix, norms):
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{w}"] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.attn.{b}"] = (d,)
        shapes[f"{prefix}.mlp.w1"] = (d, 4 * d)
        shapes[f"{prefix}.mlp.b1"] = (4 * d,)
        shapes[f"{prefix}.mlp.w2"] = (4 * d, d)
        shapes[f"{prefix}.mlp.b2"] = (d,)
        for n in norms:
            shapes[f"{prefix}.{n}.gamma"] = (d,)
            shapes[f"{prefix}.{n}.beta"] = (d,)

    shapes["vision.patch_proj.weight"] = (v.patch_size * v.patch_size * 3, d)
    shapes["vision.patch_proj.bias"] = (d,)
    shapes["vision.pos_emb"] = (v.n_patches, d)
    for i in range(v.n_layers):
        block(f"vision.layer{i}", ("norm1", "norm2"))
    shapes["vision.final_norm.gamma"] = (d,)
    shapes["vision.final_norm.beta"] = (d,)

    shapes["lm.embed"] = (lm.vocab_size, d)
    shapes["lm.encoder.pos_emb"] = (lm.max_len, d)
    for i in range(lm.n_enc_layers):
        block(f"lm.encoder.layer{i}", ("norm1", "norm2"))
    shapes["lm.encoder.final_norm.gamma"] = (d,)
    shapes["lm.encoder.final_norm.beta"] = (d,)

    shapes["lm.decoder.pos_emb"] = (lm.max_len, d)
    for i in range(lm.n_dec_layers):
        prefix = f"lm.decoder.layer{i}"
        for attn in ("self_attn", "cross_attn"):
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"{prefix}.{attn}.{w}"] = (d, d)
            for b in ("bq", "bk", "bv", "bo"):
                shapes[f"{prefix}.{attn}.{b}"] = (d,)
        shapes[f"{prefix}.mlp.w1"] = (d, 4 * d)
        shapes[f"{prefix}.mlp.b1"] = (4 * d,)
        shapes[f"{prefix}.mlp.w2"] = (4 * d, d)
        shapes[f"{prefix}.mlp.b2"] = (d,)
        for n in ("norm1", "norm2", "norm3"):
            shapes[f"{prefix}.{n}.gamma"] = (d,)
            shapes[f"{prefix}.{n}.beta"] = (d,)
    shapes["lm.decoder.final_norm.gamma"] = (d,)
    shapes["lm.decoder.final_norm.beta"] = (d,)

    shapes["lm.head.w_o"] = (lm.vocab_size, d)
    shapes["lm.head.b_o"] = (lm.vocab_size,)

    shapes["cls_head.w1"] = (d, d)
    shapes["cls_head.b1"] = (d,)
    shapes["cls_head.w2"] = (1, d)
    shapes["cls_head.b2"] = (1,)
    return shapes


def _init_value(name: str, shape, rng: Rng, dtype):
    if name.endswith(".gamma"):
        return np.ones(shape, dtype=dtype)
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("beta", "bias") or leaf.startswith("b"):
        return np.zeros(shape, dtype=dtype)
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
            for name, shape in parameter_shapes(config).items()
        }
        return cls(config, params)

    def set_trainable(self, prefixes):
        """Mark parameters trainable iff their name starts with any prefix."""
        prefixes = tuple(prefixes)
        for name, p in self.params.items():
            p.requires_grad = name.startswith(prefixes)

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None


def _layer_norm_named(model, prefix, x):
    return layer_norm(x, model.params[f"{prefix}.gamma"], model.params[f"{prefix}.beta"])


def multi_head_attention(model, prefix, x_q, x_kv, n_heads, mask=None,
                         train=False, rng=None, cache=None, static_kv=False):
    """Scaled dot-product attention over h heads; additive pre-softmax mask.

    Inputs are (..., L, d): heads are split and merged on the trailing axes,
    so a leading batch axis passes through. A mask is a suffix of the
    (..., h, Lq, Lk) scores, or a (B, 1, 1, Lk) per-row key mask.

    With a ``cache`` dict the keys and values are kept under ``prefix``: the
    K/V of ``x_kv`` are appended to the cached ones, or, with ``static_kv``,
    projected on the first call only and reused by every later call.
    """
    p = model.params
    d = x_q.shape[-1]
    dh = d // n_heads
    rate = model.config.lm.dropout_rate
    lead = tuple(range(x_q.ndim - 2))
    # (..., L, h, dh) <-> (..., h, L, dh); the swap is its own inverse
    swap = lead + (len(lead) + 1, len(lead), len(lead) + 2)

    def split_heads(t):
        return transpose(reshape(t, t.shape[:-1] + (n_heads, dh)), swap)

    q = split_heads(linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"]))
    cached = None if cache is None else cache.get(prefix)
    if static_kv and cached is not None:
        k, v = cached
    else:
        k = split_heads(linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"]))
        v = split_heads(linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"]))
        if cached is not None:
            k = concat([cached[0], k], axis=-2)
            v = concat([cached[1], v], axis=-2)
        if cache is not None:
            cache[prefix] = (k, v)

    probs = attention_probs(q, k, 1.0 / math.sqrt(dh), mask)
    probs = dropout(probs, rate, rng=rng, train=train)
    ctx = reshape(transpose(matmul(probs, v), swap), x_q.shape)
    return linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _mlp(model, prefix, x, train, rng):
    p = model.params
    rate = model.config.lm.dropout_rate
    h = gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    h = dropout(h, rate, rng=rng, train=train)
    return linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def transformer_block(model, prefix, x, n_heads, mask=None, train=False, rng=None):
    """Pre-norm residual block: self-attention then MLP."""
    rate = model.config.lm.dropout_rate
    normed = _layer_norm_named(model, f"{prefix}.norm1", x)
    attn = multi_head_attention(model, f"{prefix}.attn", normed, normed, n_heads,
                                mask=mask, train=train, rng=rng)
    x = add(x, dropout(attn, rate, rng=rng, train=train))
    normed = _layer_norm_named(model, f"{prefix}.norm2", x)
    x = add(x, dropout(_mlp(model, f"{prefix}.mlp", normed, train, rng), rate, rng=rng, train=train))
    return x


def key_padding_mask(attention_mask, dtype) -> Tensor | None:
    """Additive (-inf at padded keys) mask, or None when nothing is padded.

    An (L,) attention mask gives an (L,) row; a (B, L) mask gives
    (B, 1, 1, L), one row per sequence. A sequence with every key padded
    raises: its softmax would be all NaN.
    """
    m = np.asarray(attention_mask) != 0
    if m.all():
        return None
    empty = np.flatnonzero(~m.reshape(-1, m.shape[-1]).any(axis=-1))
    if empty.size:
        raise ValueError(f"key_padding_mask: row {int(empty[0])} has every key masked")
    row = np.where(m, 0.0, -np.inf).astype(dtype)
    if row.ndim == 2:
        row = row[:, None, None, :]
    return Tensor._wrap(row)


def causal_mask(length, dtype, offset=0) -> Tensor | None:
    """Additive mask letting query i (position offset + i) see keys 0..offset + i,
    or None when no key is hidden (a single query)."""
    if length == 1:
        return None
    m = np.triu(np.full((length, offset + length), -np.inf, dtype=dtype), k=offset + 1)
    return Tensor._wrap(m)


def embed_tokens(model, seq) -> Tensor:
    """Embedding rows for a TokenSequence, a TokenBatch or a raw id array;
    (L, d) or (B, L, d)."""
    ids = np.asarray(getattr(seq, "ids", seq), dtype=np.int64)
    return embedding_lookup(model.params["lm.embed"], ids)


def inject(text_emb: Tensor, image_embs, spans) -> Tensor:
    """Replace placeholder rows with image embedding rows (no projection).

    ``text_emb`` is (L, d) with ``spans`` a list of (start, length), or
    (B, L, d) with one such list per sequence; ``image_embs`` follow the
    spans in order. Position i of a sequence is image_embs[j][i - start_j]
    inside span j and its text row everywhere else; inputs are left
    untouched. The text and image rows are concatenated once and the fused
    matrix is one gather from them; no row is gathered twice.
    """
    image_embs = list(image_embs)
    per_row = spans if text_emb.ndim == 3 else [spans]
    n_spans = sum(len(row) for row in per_row)
    if len(image_embs) != n_spans:
        raise ValueError(
            f"inject: {len(image_embs)} image matrices for {n_spans} spans"
        )
    length, d = text_emb.shape[-2:]
    n_text = text_emb.size // d
    index = np.arange(n_text).reshape(-1, length)
    j = 0
    offset = n_text
    for row, row_spans in zip(index, per_row):
        prev_end = 0
        for start, span_len in row_spans:
            emb = image_embs[j]
            if emb.shape != (span_len, d):
                raise ValueError(
                    f"inject: span {j} expects ({span_len}, {d}) embeddings, got {emb.shape}"
                )
            if start < prev_end or start + span_len > length:
                raise ValueError(
                    f"inject: span {j} at ({start}, {span_len}) is out of order or range"
                )
            prev_end = start + span_len
            row[start:prev_end] = np.arange(offset, offset + span_len)
            offset += span_len
            j += 1
    if not image_embs:
        return text_emb
    text_rows = text_emb if text_emb.ndim == 2 else reshape(text_emb, (n_text, d))
    return take_rows(concat([text_rows] + image_embs, axis=0),
                     index.reshape(text_emb.shape[:-1]))


def encode_multimodal(model, seq, images=(), train=False, rng=None) -> EncoderStates:
    """Embed a TokenSequence, or a padded TokenBatch in one pass, encode and
    inject its images (in span order, row by row), and run the language-model
    encoder over the fused (L, d) or (B, L, d) sequence."""
    # vision imports this module, so the name is looked up at call time
    from fusionqa.vision import image_rows

    images = list(images)
    spans = seq.image_spans
    n_spans = sum(map(len, spans)) if seq.ids.ndim == 2 else len(spans)
    if len(images) != n_spans:
        raise ValueError(
            f"sequence has {n_spans} image spans but {len(images)} images given"
        )
    cfg = model.config.lm
    length = seq.ids.shape[-1]
    if np.shape(seq.attention_mask) != seq.ids.shape:
        raise ValueError("encode: attention mask length differs from sequence length")
    if length > cfg.max_len:
        raise ValueError(f"encode: sequence length {length} exceeds max_len {cfg.max_len}")
    mask = key_padding_mask(seq.attention_mask, model.dtype)
    x = inject(embed_tokens(model, seq), image_rows(model, images, train=train, rng=rng), spans)
    x = add(x, slice_(model.params["lm.encoder.pos_emb"], (slice(0, length),)))
    x = dropout(x, cfg.dropout_rate, rng=rng, train=train)
    for i in range(cfg.n_enc_layers):
        x = transformer_block(model, f"lm.encoder.layer{i}", x, cfg.n_heads,
                              mask=mask, train=train, rng=rng)
    x = _layer_norm_named(model, "lm.encoder.final_norm", x)
    return EncoderStates(x, np.asarray(seq.attention_mask))


def decoder_hidden(model, enc: EncoderStates, dec_input_ids, train=False, rng=None,
                   cache: DecoderCache | None = None) -> Tensor:
    """Decoder states (T, d) for (T,) ``dec_input_ids``, or (B, T, d) for
    (B, T) ids over a batched encoder output, one row per sequence.

    Self-attention is causal only: right padding of the ids comes after
    every real position, so no real position sees it. Cross-attention skips
    the encoder's padded keys. With a cache (unbatched only) the ids are the
    T positions after the ``cache.length`` already run, and their
    self-attention K/V are appended to the cache."""
    cfg = model.config.lm
    ids = np.asarray(dec_input_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or enc.states.shape[:-2] != ids.shape[:-1]:
        raise ValueError(
            f"decoder: ids {ids.shape} do not match encoder states {enc.states.shape}"
        )
    if ids.ndim == 2 and cache is not None:
        raise ValueError("decoder: the decoding cache serves one sequence, not a batch")
    if enc.states.shape[-2] == 0:
        raise ValueError("decoder: empty encoder states")
    t_len = ids.shape[-1]
    if t_len == 0:
        raise ValueError("decoder: empty input")
    start = 0 if cache is None else cache.length
    if start + t_len > cfg.max_len:
        raise ValueError(f"decoder: input length {start + t_len} exceeds max_len {cfg.max_len}")
    kv = None if cache is None else cache.kv
    x = embedding_lookup(model.params["lm.embed"], ids)
    x = add(x, slice_(model.params["lm.decoder.pos_emb"], (slice(start, start + t_len),)))
    x = dropout(x, cfg.dropout_rate, rng=rng, train=train)
    cmask = causal_mask(t_len, model.dtype, offset=start)
    kmask = key_padding_mask(enc.attention_mask, model.dtype)
    rate = cfg.dropout_rate
    for i in range(cfg.n_dec_layers):
        prefix = f"lm.decoder.layer{i}"
        normed = _layer_norm_named(model, f"{prefix}.norm1", x)
        attn = multi_head_attention(model, f"{prefix}.self_attn", normed, normed,
                                    cfg.n_heads, mask=cmask, train=train, rng=rng, cache=kv)
        x = add(x, dropout(attn, rate, rng=rng, train=train))
        normed = _layer_norm_named(model, f"{prefix}.norm2", x)
        cross = multi_head_attention(model, f"{prefix}.cross_attn", normed, enc.states,
                                     cfg.n_heads, mask=kmask, train=train, rng=rng,
                                     cache=kv, static_kv=True)
        x = add(x, dropout(cross, rate, rng=rng, train=train))
        normed = _layer_norm_named(model, f"{prefix}.norm3", x)
        x = add(x, dropout(_mlp(model, f"{prefix}.mlp", normed, train, rng), rate, rng=rng, train=train))
    if cache is not None:
        cache.length = start + t_len
    return _layer_norm_named(model, "lm.decoder.final_norm", x)


def _lm_head(model, hidden: Tensor) -> Tensor:
    w_o = model.params["lm.head.w_o"]  # (V, d)
    return linear(hidden, transpose(w_o, (1, 0)), model.params["lm.head.b_o"])


def decoder_logits(model, enc: EncoderStates, dec_input_ids, train=False, rng=None) -> Tensor:
    """(T, V) pre-softmax logits under teacher forcing, or (B, T, V) for
    (B, T) ids."""
    return _lm_head(model, decoder_hidden(model, enc, dec_input_ids, train=train, rng=rng))


def decode_step(model, enc: EncoderStates, prefix_ids, cache: DecoderCache | None = None) -> Tensor:
    """Pre-softmax logits (V,) for the position after the given prefix.

    The cache holds the first ``cache.length`` prefix positions of earlier
    steps for this ``enc``; only the rest of the prefix runs, and only its
    last position is projected to the vocabulary. Without a cache a fresh one
    is filled from the whole prefix.
    """
    prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
    if len(prefix_ids) >= model.config.lm.max_len:
        raise ValueError(
            f"decode_step: prefix length {len(prefix_ids)} must stay below max_len "
            f"{model.config.lm.max_len}"
        )
    cache = DecoderCache() if cache is None else cache
    if cache.length >= len(prefix_ids):
        raise ValueError(
            f"decode_step: cache holds {cache.length} positions, "
            f"the prefix has only {len(prefix_ids)}"
        )
    hidden = decoder_hidden(model, enc, prefix_ids[cache.length:], train=False, cache=cache)
    return reshape(_lm_head(model, slice_(hidden, (slice(-1, None),))), (-1,))
