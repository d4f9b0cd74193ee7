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
    concat,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    reshape,
    scale,
    slice_,
    softmax_lastdim,
    transpose,
)
from fusionqa.tokenizer import TokenSequence


@dataclass
class FusedSequence:
    """Embedding matrix after injection."""

    embeddings: Tensor  # (L, d)
    attention_mask: np.ndarray


@dataclass
class EncoderStates:
    states: Tensor  # (L, d)
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


def _linear(x, w, b):
    return add(matmul(x, w), b)


def multi_head_attention(model, prefix, x_q, x_kv, n_heads, mask=None,
                         train=False, rng=None, cache=None, static_kv=False):
    """Scaled dot-product attention over h heads; additive pre-softmax mask.

    With a ``cache`` dict the keys and values are kept under ``prefix``: the
    K/V of ``x_kv`` are appended to the cached ones, or, with ``static_kv``,
    projected on the first call only and reused by every later call.
    """
    p = model.params
    lq, d = x_q.shape
    dh = d // n_heads
    rate = model.config.lm.dropout_rate

    def split_heads(t):
        return transpose(reshape(t, (t.shape[0], n_heads, dh)), (1, 0, 2))

    q = split_heads(_linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"]))
    cached = None if cache is None else cache.get(prefix)
    if static_kv and cached is not None:
        k, v = cached
    else:
        k = split_heads(_linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"]))
        v = split_heads(_linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"]))
        if cached is not None:
            k = concat([cached[0], k], axis=1)
            v = concat([cached[1], v], axis=1)
        if cache is not None:
            cache[prefix] = (k, v)

    scores = scale(matmul(q, transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    if mask is not None:
        scores = add(scores, mask)
    probs = softmax_lastdim(scores)
    probs = dropout(probs, rate, rng=rng, train=train)
    ctx = reshape(transpose(matmul(probs, v), (1, 0, 2)), (lq, d))
    return _linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _mlp(model, prefix, x, train, rng):
    p = model.params
    rate = model.config.lm.dropout_rate
    h = gelu(_linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    h = dropout(h, rate, rng=rng, train=train)
    return _linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


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
    """Additive (-inf at padded keys) mask, or None when nothing is padded."""
    m = np.asarray(attention_mask)
    if m.all():
        return None
    row = np.where(m != 0, 0.0, -np.inf).astype(dtype)
    return Tensor._wrap(row)


def causal_mask(length, dtype, offset=0) -> Tensor | None:
    """Additive mask letting query i (position offset + i) see keys 0..offset + i,
    or None when no key is hidden (a single query)."""
    if length == 1:
        return None
    m = np.triu(np.full((length, offset + length), -np.inf, dtype=dtype), k=offset + 1)
    return Tensor._wrap(m)


def embed_tokens(model, seq) -> Tensor:
    """Embedding rows for a TokenSequence (or raw id array); (L, d)."""
    ids = seq.ids if isinstance(seq, TokenSequence) else np.asarray(seq, dtype=np.int64)
    return embedding_lookup(model.params["lm.embed"], ids)


def inject(text_emb: Tensor, image_embs, spans, attention_mask=None) -> FusedSequence:
    """Replace placeholder rows with image embedding rows (no projection).

    Row i of the result is image_embs[j][i - start_j] inside span j and
    text_emb[i] everywhere else; inputs are left untouched.
    """
    image_embs = list(image_embs)
    if len(image_embs) != len(spans):
        raise ValueError(
            f"inject: {len(image_embs)} image matrices for {len(spans)} spans"
        )
    length, d = text_emb.shape
    prev_end = 0
    for j, ((start, span_len), emb) in enumerate(zip(spans, image_embs)):
        if emb.shape != (span_len, d):
            raise ValueError(
                f"inject: span {j} expects ({span_len}, {d}) embeddings, got {emb.shape}"
            )
        if start < prev_end or start + span_len > length:
            raise ValueError(f"inject: span {j} at ({start}, {span_len}) is out of order or range")
        prev_end = start + span_len
    mask = np.ones(length, dtype=np.int64) if attention_mask is None else attention_mask

    if not spans:
        return FusedSequence(text_emb, mask)

    pieces = []
    cursor = 0
    for j, (start, span_len) in enumerate(spans):
        if start > cursor:
            pieces.append(slice_(text_emb, (slice(cursor, start),)))
        pieces.append(image_embs[j])
        cursor = start + span_len
    if cursor < length:
        pieces.append(slice_(text_emb, (slice(cursor, length),)))
    fused = concat(pieces, axis=0)
    return FusedSequence(fused, mask)


def encode_fused(model, fused: FusedSequence, train=False, rng=None) -> EncoderStates:
    """Run the language-model encoder over a fused embedding sequence."""
    cfg = model.config.lm
    length = fused.embeddings.shape[0]
    if len(fused.attention_mask) != length:
        raise ValueError("encode: attention mask length differs from sequence length")
    if length > cfg.max_len:
        raise ValueError(f"encode: sequence length {length} exceeds max_len {cfg.max_len}")
    x = add(fused.embeddings, slice_(model.params["lm.encoder.pos_emb"], (slice(0, length),)))
    x = dropout(x, cfg.dropout_rate, rng=rng, train=train)
    mask = key_padding_mask(fused.attention_mask, model.dtype)
    for i in range(cfg.n_enc_layers):
        x = transformer_block(model, f"lm.encoder.layer{i}", x, cfg.n_heads,
                              mask=mask, train=train, rng=rng)
    x = _layer_norm_named(model, "lm.encoder.final_norm", x)
    return EncoderStates(x, np.asarray(fused.attention_mask))


def encode_multimodal(model, seq: TokenSequence, images=(), train=False, rng=None) -> EncoderStates:
    """Embed a token sequence, encode and inject its images, run the encoder."""
    # vision imports this module, so the name is looked up at call time; the
    # traced benchmark run (perfbench/spans.py) also relies on this lookup:
    # it replaces vision.encode_image to time the vision encoder
    from fusionqa.vision import encode_image

    images = list(images)
    if len(images) != len(seq.image_spans):
        raise ValueError(
            f"sequence has {len(seq.image_spans)} image spans but {len(images)} images given"
        )
    text_emb = embed_tokens(model, seq)
    image_embs = [encode_image(model, img, train=train, rng=rng) for img in images]
    fused = inject(text_emb, image_embs, seq.image_spans, seq.attention_mask)
    return encode_fused(model, fused, train=train, rng=rng)


def decoder_hidden(model, enc: EncoderStates, dec_input_ids, train=False, rng=None,
                   cache: DecoderCache | None = None) -> Tensor:
    """Decoder states (T, d) for ``dec_input_ids``. With a cache the ids are
    the T positions after the ``cache.length`` already run, and their
    self-attention K/V are appended to the cache."""
    cfg = model.config.lm
    if enc.states.shape[0] == 0:
        raise ValueError("decoder: empty encoder states")
    ids = np.asarray(dec_input_ids, dtype=np.int64)
    t_len = len(ids)
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
    return add(matmul(hidden, transpose(w_o, (1, 0))), model.params["lm.head.b_o"])


def decoder_logits(model, enc: EncoderStates, dec_input_ids, train=False, rng=None) -> Tensor:
    """(T, V) pre-softmax logits under teacher forcing."""
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
