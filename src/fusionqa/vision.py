"""Patch-based transformer encoder: image -> N embeddings of model width.

Pre-layer-norm blocks; the N patch outputs (no class token) are the visual
tokens later injected into the language model's input sequence.

While the encoder is frozen its output is a function of its weights and the
pixels alone, so ``image_rows`` keeps each image's rows on the image and
serves them again to any model with bit-identical vision weights.
"""

from __future__ import annotations

import hashlib

import numpy as np

from fusionqa.images import Image
from fusionqa.model import transformer_block
from fusionqa.tensor import Tensor, add, dropout, grad_enabled, layer_norm, linear


def patchify(img: Image, patch_size: int) -> np.ndarray:
    """Flatten an image into (N, P*P*C) rows, row-major over the patch grid,
    row-major within each patch, channel-last."""
    h, w = img.height, img.width
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"image {h}x{w} not divisible into {p}x{p} patches")
    grid = img.pixels.reshape(h // p, p, w // p, p, 3)
    patches = grid.transpose(0, 2, 1, 3, 4).reshape((h // p) * (w // p), p * p * 3)
    return np.ascontiguousarray(patches)


def encode_image(model, img: Image, train: bool = False, rng=None) -> Tensor:
    """Run the vision encoder; returns an (N, d) embedding matrix."""
    cfg = model.config.vision
    patches = patchify(img, cfg.patch_size)
    expected = model.params["vision.patch_proj.weight"].shape[0]
    if patches.shape[1] != expected:
        raise ValueError(
            f"patch width {patches.shape[1]} does not match projection input {expected}"
        )
    if patches.shape[0] != cfg.n_patches:
        raise ValueError(
            f"image yields {patches.shape[0]} patches, config expects {cfg.n_patches}"
        )
    x = linear(Tensor(patches, dtype=model.dtype), model.params["vision.patch_proj.weight"],
               model.params["vision.patch_proj.bias"])
    x = add(x, model.params["vision.pos_emb"])
    x = dropout(x, model.config.lm.dropout_rate, rng=rng, train=train)
    for i in range(cfg.n_layers):
        x = transformer_block(
            model, f"vision.layer{i}", x, n_heads=cfg.n_heads,
            mask=None, train=train, rng=rng,
        )
    return layer_norm(x, model.params["vision.final_norm.gamma"],
                      model.params["vision.final_norm.beta"])


def _vision_key(model, weights) -> bytes:
    """Digest of the vision config, dtype and ``weights``, the model's
    (name, bytes) list of vision.* tensors. The digest is kept on the model
    beside the bytes it was taken from; a call that finds the weights
    bit-identical to them reuses it, so hashing reruns only after a change."""
    if model._vision_key is None or model._vision_key[1] != weights:
        h = hashlib.blake2b(repr((model.config.vision, model.dtype)).encode(), digest_size=16)
        for name, bits in sorted(weights):
            h.update(name.encode())
            h.update(bits)
        model._vision_key = (h.digest(), weights)
    return model._vision_key[0]


def image_rows(model, images, train: bool = False, rng=None) -> list[Tensor]:
    """``encode_image`` for each image, served from the image's memo while
    that is exact.

    The memo serves when the vision encoder is frozen (grad recording is off,
    or no vision.* tensor requires grad) and its dropout is inactive (eval,
    or a zero rate). Its key is a digest of the vision weights, so models
    with bit-identical vision weights share rows; an image keeps one entry
    per key it was served under. A memoised row is a constant tensor, as the
    frozen encoder's output is. Otherwise every image is encoded afresh.
    """
    if not images:
        return []
    vision = [(n, p) for n, p in model.params.items() if n.startswith("vision.")]
    frozen = not grad_enabled() or not any(p.requires_grad for _, p in vision)
    if not frozen or (train and model.config.lm.dropout_rate != 0.0):
        return [encode_image(model, img, train=train, rng=rng) for img in images]
    key = _vision_key(model, [(n, p.data.tobytes()) for n, p in vision])
    rows = []
    for img in images:
        if key not in img._rows:
            # a module-global call: a replaced vision.encode_image (the traced
            # benchmark run times the encoder so) sees every miss
            row = encode_image(model, img, train=train, rng=rng)
            row.data.flags.writeable = False  # every later caller shares it
            img._rows[key] = row
        rows.append(img._rows[key])
    return rows
