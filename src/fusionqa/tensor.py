"""Dense tensors with reverse-mode automatic differentiation.

numpy holds the raw arrays; the op functions below build the graph and
``backward`` walks it once per call. float32 is the training dtype; build
parameters in float64 when finite-difference checking gradients.

Layout is row-major throughout. Broadcasting is deliberately narrow: matmul
allows a shared leading batch axis, add allows a trailing-suffix bias, and
nothing else. Every other op requires exact shape agreement so that shape
bugs fail loudly at the op that caused them.

Every op here serves the package, with one exception kept for the tests:
``mul``, ``tsum`` and ``Rng.normal`` build the scalar losses and random
inputs that the gradient checks probe with ``grad_check``.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Rng",
    "no_grad",
    "backward",
    "grad_check",
    "matmul",
    "linear",
    "add",
    "mul",
    "tanh",
    "gelu",
    "attention_probs",
    "layer_norm",
    "dropout",
    "embedding_lookup",
    "take_rows",
    "concat",
    "slice_",
    "reshape",
    "transpose",
    "tsum",
    "bce_with_logits",
    "cross_entropy_logits",
    "sigmoid_np",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, probing)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether op results are being recorded on the tape. Not in ``__all__``,
    whose other names are ops or types: the traced benchmark run counts each
    call of an ``__all__`` function it does not know as a taped op."""
    return _grad_enabled


def _derive_seed(seed: int, tag) -> int:
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Deterministic PRNG handle: identical seed, identical draw sequence.

    All randomness in the package flows through explicitly threaded Rng
    instances; there is no global random state. ``child`` derives an
    independent stream from (seed, tag) so consumers do not perturb each
    other's sequences.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag) -> "Rng":
        """A new independent stream derived from (seed, tag)."""
        return Rng(_derive_seed(self.seed, tag))

    def uniform(self, shape=()):
        return self._gen.random(shape)

    def normal(self, shape=(), std=1.0):
        return self._gen.standard_normal(shape) * std

    def truncated_normal(self, shape=(), std=1.0):
        # normal clipped at two standard deviations
        return np.clip(self._gen.standard_normal(shape), -2.0, 2.0) * std

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def sample_indices(self, n, k):
        """k distinct indices in [0, n), without replacement."""
        return self._gen.choice(n, size=k, replace=False)


class Tensor:
    """n-dimensional value with an optional gradient.

    ``data`` is a row-major numpy array (float32 unless told otherwise),
    ``grad`` accumulates across backward() calls until cleared, and
    ``requires_grad=False`` both blocks gradient accumulation and marks the
    tensor frozen for optimizers.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @classmethod
    def _wrap(cls, arr) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t.requires_grad = False
        t._parents = ()
        t._vjp = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _out(data, parents, vjp):
    """Wrap an op result, recording it on the tape when any input needs grad."""
    t = Tensor._wrap(data)
    if _grad_enabled and any(p.requires_grad or p._vjp is not None for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._vjp = vjp
    return t


def _shrink(g, shape):
    """Sum leading broadcast axes of g down to the given shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    out = g.sum(axis=tuple(range(extra))) if extra else g
    if out.shape != shape:
        raise ShapeError(f"internal: cannot reduce gradient {g.shape} to {shape}")
    return out


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)`` as one taped op: (..., n) @ (n, m) + (m,).

    It keeps one result array where the two ops kept two, and its vjp runs
    their numpy operations, so values and gradients are bit-identical.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear: need (..., n) @ (n, m) + (m,), got {xd.shape} @ {wd.shape} + {bd.shape}")
    out = xd @ wd
    out += bd

    def vjp(g):
        gx = g @ np.swapaxes(wd, -1, -2)
        gw = _shrink(np.swapaxes(xd, -1, -2) @ g, wd.shape)
        return gx, gw, _shrink(g, bd.shape)

    return _out(out, (x, w, b), vjp)


def _suffix_ok(big, small):
    return small.ndim <= big.ndim and big.shape[big.ndim - small.ndim:] == small.shape


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes equal, or one operand a trailing suffix (bias add)."""
    ad, bd = a.data, b.data
    if not (_suffix_ok(ad, bd) or _suffix_ok(bd, ad)):
        raise ShapeError(f"add: incompatible shapes {ad.shape} + {bd.shape}")
    out = ad + bd

    def vjp(g):
        return _shrink(g, ad.shape), _shrink(g, bd.shape)

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


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _out(t, (a,), lambda g: (g * (1.0 - t * t),))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_parts(x):
    """x * x and the tanh term of gelu, which its vjp recomputes rather
    than keep. The cube is two multiplies, not x**3: on float32 input with
    negative entries numpy takes a generic pow path ~100x slower."""
    x2 = x * x
    return x2, np.tanh(_GELU_C * (x + 0.044715 * (x * x2)))


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form."""
    x = a.data
    _, t = _gelu_parts(x)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        x2, t = _gelu_parts(x)
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return _out(out, (a,), vjp)


def attention_probs(q: Tensor, k: Tensor, c, mask: Tensor = None) -> Tensor:
    """Attention weights softmax(q @ kᵀ * c + mask) over the last axis, as
    one taped op.

    ``q`` is (..., Lq, d) and ``k`` (..., Lk, d) with equal leading axes.
    ``mask`` is an additive constant: a suffix of the (..., Lq, Lk) scores,
    or as many axes as they have, each 1 or theirs (a (B, 1, 1, Lk) key
    mask). The softmax is max-subtracted. Only the probabilities are kept,
    and values and gradients are bit-identical to matmul, scale, add and a
    last-axis softmax run one after another.
    """
    qd, kd = q.data, k.data
    if qd.ndim < 2 or qd.shape[:-2] != kd.shape[:-2] or qd.shape[-1] != kd.shape[-1]:
        raise ShapeError(f"attention_probs: need (..., Lq, d) and (..., Lk, d), got {qd.shape} and {kd.shape}")
    c = float(c)
    swap = tuple(range(kd.ndim - 2)) + (kd.ndim - 1, kd.ndim - 2)  # its own inverse
    k_t = np.transpose(kd, swap)
    s = qd @ k_t
    s *= c
    if mask is not None:
        md = mask.data
        per_axis = md.ndim == s.ndim and all(m in (1, n) for m, n in zip(md.shape, s.shape))
        if not (per_axis or _suffix_ok(s, md)):
            raise ShapeError(f"attention_probs: mask {md.shape} does not fit scores {s.shape}")
        s += md
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def vjp(g):
        gs = s * (g - (g * s).sum(axis=-1, keepdims=True))
        gs = gs * c
        gq = gs @ np.swapaxes(k_t, -1, -2)
        gk = np.transpose(np.swapaxes(qd, -1, -2) @ gs, swap)
        return gq, gk

    return _out(s, (q, k), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    d = xd.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.data.shape}/{beta.data.shape} do not match feature width ({d},)"
        )
    mu = xd.sum(axis=-1, keepdims=True) / d
    xc = xd - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=lead) if lead else (g * xhat)
        gbeta = g.sum(axis=lead) if lead else g
        gx_hat = g * gamma.data
        gx = inv * (
            gx_hat
            - gx_hat.sum(axis=-1, keepdims=True) / d
            - xhat * ((gx_hat * xhat).sum(axis=-1, keepdims=True) / d)
        )
        return gx, ggamma, gbeta

    return _out(out, (x, gamma, beta), vjp)


def dropout(x: Tensor, rate: float, rng: Rng = None, train: bool = False) -> Tensor:
    """Inverted dropout; identity in eval mode or at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode requires an Rng")
    keep = (rng.uniform(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return _out(x.data * keep, (x,), lambda g: (g * keep,))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of `table` selected by integer ids; gradient scatters back."""
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ValueError(
            f"embedding_lookup: id out of range [0, {n_rows}), got {int(ids.min())}..{int(ids.max())}"
        )
    out = table.data[ids]

    def vjp(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return (buf,)

    return _out(out, (table,), vjp)


def take_rows(x: Tensor, index) -> Tensor:
    """Rows of `x` at an integer index with no repeated entry. Because no
    row is taken twice, the gradient scatters back by plain assignment; use
    ``embedding_lookup`` when ids can repeat."""
    index = np.asarray(index, dtype=np.int64)
    out = x.data[index]

    def vjp(g):
        buf = np.zeros_like(x.data)
        buf[index] = g
        return (buf,)

    return _out(out, (x,), vjp)


def concat(tensors, axis=0) -> Tensor:
    """Concatenate along an axis; all other extents must agree."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or s[:axis] + s[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise ShapeError(f"concat: shapes {ref} and {s} differ off axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _out(out, tuple(tensors), vjp)


def slice_(x: Tensor, key) -> Tensor:
    """Basic indexing (ints and slices only); gradient pads with zeros."""
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, (int, np.integer, slice)):
            raise TypeError(f"slice_: only ints and slices supported, got {type(k).__name__}")
    out = x.data[key]

    def vjp(g):
        buf = np.zeros_like(x.data)
        buf[key] = g
        return (buf,)

    return _out(out, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)
    return _out(out, (x,), lambda g: (g.reshape(x.data.shape),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _out(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inv),))


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar."""
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    return _out(out, (x,), lambda g: (np.full(x.data.shape, g, dtype=x.data.dtype),))


def sigmoid_np(x):
    """Numerically stable sigmoid on a plain numpy array (not taped)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy from raw logits, log-sum-exp stabilized.

    Per element: max(x, 0) - x*y + log(1 + exp(-|x|)), finite for any
    representable logit.
    """
    x = logits.data
    if x.ndim != 1:
        raise ShapeError(f"bce_with_logits: logits must be 1-D, got {x.shape}")
    y = np.asarray(labels, dtype=x.dtype)
    if y.shape != x.shape:
        raise ShapeError(f"bce_with_logits: {x.shape} logits vs {y.shape} labels")
    if y.size and not np.all((y == 0) | (y == 1)):
        raise ValueError("bce_with_logits: labels must be 0 or 1")
    n = x.shape[0]
    per = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    out = np.asarray(per.sum() / n, dtype=x.dtype)

    def vjp(g):
        return ((sigmoid_np(x).astype(x.dtype) - y) * (g / n),)

    return _out(out, (logits,), vjp)


def cross_entropy_logits(logits: Tensor, targets, mask=None) -> Tensor:
    """Token-level cross-entropy from (T, V) logits, averaged over mask; from
    (B, T, V) logits, the mean over the B rows of each row's masked average.

    ``targets`` are integer ids shaped like the logits without their last
    axis; ``mask`` weights positions (defaults to all ones), and a row with
    no unmasked position raises. Stable via log-sum-exp; the vjp recomputes
    the probabilities from the logits rather than keep them.
    """
    x = logits.data
    if x.ndim not in (2, 3):
        raise ShapeError(f"cross_entropy_logits: logits must be (T, V) or (B, T, V), got {x.shape}")
    vocab = x.shape[-1]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != x.shape[:-1]:
        raise ShapeError(f"cross_entropy_logits: {x.shape} logits vs {targets.shape} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError("cross_entropy_logits: target id out of range")
    m = np.ones(targets.shape, dtype=x.dtype) if mask is None else np.asarray(mask, dtype=x.dtype)
    if m.shape != targets.shape:
        raise ShapeError(f"cross_entropy_logits: {m.shape} mask vs {targets.shape} targets")
    total = m.sum(axis=-1, keepdims=True)  # (1,) or (B, 1)
    empty = np.flatnonzero(total <= 0)
    if empty.size:
        where = f" in row {int(empty[0])}" if x.ndim == 3 else ""
        raise ValueError(f"cross_entropy_logits: no unmasked target positions{where}")
    rows = total.size
    mx = x.max(axis=-1, keepdims=True)
    lse = mx + np.log(np.exp(x - mx).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(x, targets[..., None], axis=-1)[..., 0] - lse[..., 0]
    per_row = -(m * picked).sum(axis=-1) / total[..., 0]
    out = np.asarray(per_row.sum() / rows, dtype=x.dtype)

    def vjp(g):
        p = np.exp(x - lse)
        flat = p.reshape(-1, vocab)
        flat[np.arange(flat.shape[0]), targets.reshape(-1)] -= 1.0
        p *= (m / total / rows)[..., None]
        return (p * g,)

    return _out(out, (logits,), vjp)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into .grad of every reachable leaf tensor
    (no vjp) that requires grad; intermediate results keep ``grad`` None.
    Repeated calls without zeroing add up.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward: loss must be a Tensor")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    # A node's gradient is dropped from ``grads`` once its vjp has run.
    grads = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not (parent.requires_grad or parent._vjp is not None):
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg


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
