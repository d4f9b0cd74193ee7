"""Patch-based transformer encoder: image -> N embeddings of model width.

Pre-layer-norm blocks; the N patch outputs (no class token) are the visual
tokens later injected into the language model's input sequence.

``encode_images`` runs M images as one stacked (M, N, .) pass, so a step
records one set of encoder ops whatever its image count; ``encode_image`` is
its one-image call. While the encoder trains, ``image_rows`` encodes all of
a step's images in that one pass. While it is frozen its output is a
function of its weights and the pixels alone, so ``image_rows`` keeps each
image's rows on the image and serves them again to any model with
bit-identical vision weights.
"""

from __future__ import annotations

import hashlib

import numpy as np

from fusionqa.images import Image
from fusionqa.model import ENCODER_ATTNS, run_stack
from fusionqa.tensor import Tensor, grad_enabled, linear, reshape


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


def encode_images(model, images, rng=None) -> Tensor:
    """Run the vision encoder over ``images`` in one pass: their patches
    stacked to (M, N, P*P*3), one patch projection and one encoder stack,
    with the position rows broadcast over the M images. Returns the (M*N, d)
    rows, image-major. Each image's rows equal its own pass bit for bit;
    dropout draws each mask once over the stacked shape."""
    cfg = model.config.vision
    patches = [patchify(img, cfg.patch_size) for img in images]
    for i, rows in enumerate(patches):
        if rows.shape[0] != cfg.n_patches:
            raise ValueError(
                f"image {i} yields {rows.shape[0]} patches, config expects {cfg.n_patches}"
            )
    p = model.params
    x = linear(Tensor(np.stack(patches), dtype=model.dtype), p["vision.patch_proj.weight"],
               p["vision.patch_proj.bias"])
    out = run_stack(model, "vision", x, p["vision.pos_emb"],
                    [(name, None, None) for name in ENCODER_ATTNS], rng=rng)
    return reshape(out, (len(patches) * cfg.n_patches, out.shape[-1]))


def encode_image(model, img: Image, rng=None) -> Tensor:
    """``encode_images`` of the one image ``img``: its (N, d) rows."""
    return encode_images(model, [img], rng=rng)


def _vision_key(model, weights) -> bytes:
    """Digest of the vision config, head count, dtype and ``weights``, the
    model's (name, bytes) list of vision.* tensors. The digest is kept on the
    model beside the bytes it was taken from; a call that finds the weights
    bit-identical to them reuses it, so hashing reruns only after a change."""
    if model._vision_key is None or model._vision_key[1] != weights:
        tag = (model.config.vision, model.config.lm.n_heads, model.dtype)
        h = hashlib.blake2b(repr(tag).encode(), digest_size=16)
        for name, bits in sorted(weights):
            h.update(name.encode())
            h.update(bits)
        model._vision_key = (h.digest(), weights)
    return model._vision_key[0]


def image_rows(model, images, rng=None) -> list[Tensor]:
    """Row blocks whose concatenation is each image's ``encode_image`` rows
    in turn, served from the images' memos while that is exact.

    The memo serves when the vision encoder is frozen (grad recording is off,
    or no vision.* tensor requires grad) and its dropout is inactive (no
    ``rng``, or a zero rate). Its key is a digest of the vision weights, so
    models with bit-identical vision weights share rows; an image keeps one
    entry per key it was served under. A memoised row is a constant tensor, as the
    frozen encoder's output is; each image is one block. Otherwise all of
    the images are encoded afresh in one ``encode_images`` pass, one block.
    """
    if not images:
        return []
    vision = [(n, p) for n, p in model.params.items() if n.startswith("vision.")]
    frozen = not grad_enabled() or not any(p.requires_grad for _, p in vision)
    if not frozen or (rng is not None and model.config.lm.dropout_rate != 0.0):
        return [encode_images(model, images, rng=rng)]
    key = _vision_key(model, [(n, p.data.tobytes()) for n, p in vision])
    rows = []
    for img in images:
        if key not in img._rows:
            # a module-global call: a replaced vision.encode_image (the traced
            # benchmark run times the encoder so) sees every miss
            row = encode_image(model, img, rng=rng)
            row.data.flags.writeable = False  # every later caller shares it
            img._rows[key] = row
        rows.append(img._rows[key])
    return rows
