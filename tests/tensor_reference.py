"""The tensor API that only the tests use: ``matmul``, the reference that
``linear`` and ``attention`` are checked against; ``mul`` and ``tsum``, which
build the scalar losses the gradient checks probe; and ``grad_check``, which
compares ``backward`` with central finite differences. The ops record on the
same tape as ``fusionqa.tensor``'s own."""

import math

import numpy as np

from fusionqa.tensor import Rng, ShapeError, Tensor, _out, _shrink, backward, no_grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands 2-D+, leading batch dims equal or absent."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {ad.shape} @ {bd.shape}")
    if ad.ndim > 2 and bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: batch dimensions differ, {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def vjp(g):
        ga = _shrink(g @ np.swapaxes(bd, -1, -2), ad.shape)
        gb = _shrink(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

    return _out(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; exact shape agreement required."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul: shapes must match exactly, got {ad.shape} * {bd.shape}")
    out = ad * bd

    def vjp(g):
        return g * bd, g * ad

    return _out(out, (a, b), vjp)


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar."""
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    return _out(out, (x,), lambda g: (np.full(x.data.shape, g, dtype=x.data.dtype),))


def grad_check(f, params, eps=1e-4, max_coords_per_param=None, rng=None) -> float:
    """Compare backward() against central finite differences.

    ``f(params) -> scalar Tensor`` must be deterministic (dropout off) and the
    parameters must be float64. Returns the max over probed coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError(f"grad_check: eps must lie in [1e-6, 1e-3], got {eps}")
    params = list(params)
    for i, p in enumerate(params):
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check: parameter {i} must be float64, got {p.data.dtype}")
        p.grad = None

    loss = f(params)
    backward(loss)
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]

    rng = rng or Rng(0)
    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        a_flat = analytic[pi].reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.sample_indices(n, max_coords_per_param)
        else:
            coords = range(n)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            with no_grad():
                hi = float(f(params).data)
            flat[idx] = orig - eps
            with no_grad():
                lo = float(f(params).data)
            flat[idx] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise FloatingPointError(
                    f"grad_check: non-finite loss probing parameter {pi} coordinate {int(idx)}"
                )
            numeric = (hi - lo) / (2.0 * eps)
            a = float(a_flat[idx])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst:
                worst = rel
    return worst
