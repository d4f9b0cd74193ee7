"""Patch-based transformer encoder: image -> N embeddings of model width.

Pre-layer-norm blocks; the N patch outputs (no class token) are the visual
tokens later injected into the language model's input sequence.
"""

from __future__ import annotations

import numpy as np

from fusionqa.images import Image
from fusionqa.model import transformer_block
from fusionqa.tensor import Tensor, add, dropout, layer_norm, matmul


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
    x = add(
        matmul(Tensor(patches, dtype=model.dtype), model.params["vision.patch_proj.weight"]),
        model.params["vision.patch_proj.bias"],
    )
    x = add(x, model.params["vision.pos_emb"])
    x = dropout(x, model.config.lm.dropout_rate, rng=rng, train=train)
    for i in range(cfg.n_layers):
        x = transformer_block(
            model, f"vision.layer{i}", x, n_heads=cfg.n_heads,
            mask=None, train=train, rng=rng,
        )
    return layer_norm(x, model.params["vision.final_norm.gamma"],
                      model.params["vision.final_norm.beta"])
