"""Dense tensors with reverse-mode automatic differentiation.

numpy holds the raw arrays; the op functions below build the graph and
``backward`` walks it once per call. float32 is the training dtype; build
parameters in float64 when finite-difference checking gradients.

Layout is row-major throughout. Broadcasting is deliberately narrow: linear
applies one weight over any leading axes, add allows a trailing-suffix bias,
and nothing else. Every other op requires exact shape agreement so that shape
bugs fail loudly at the op that caused them.

Dropout, in ``dropout`` and on ``attention``'s weights, runs exactly when
an ``Rng`` is passed and the rate is nonzero; without an Rng the op is the
deterministic eval pass.

Every op here serves the package. ``Rng.normal`` alone is kept for the
tests, which draw random inputs with it; their reference ``matmul``, the
``mul`` and ``tsum`` that build scalar losses and the finite-difference
``grad_check`` live in ``tests/tensor_reference.py``.
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
    "linear",
    "add",
    "tanh",
    "gelu",
    "attention",
    "layer_norm",
    "dropout",
    "embedding_lookup",
    "take_rows",
    "concat",
    "slice_",
    "reshape",
    "transpose",
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


def linear(x: Tensor, w: Tensor, b: Tensor = None) -> Tensor:
    """``add(matmul(x, w), b)`` as one taped op: (..., n) @ (n, m) + (m,), or
    the product alone when ``b`` is None. It keeps one result array where the
    two ops kept two, and its vjp runs their numpy operations, so values and
    gradients are bit-identical.
    """
    xd, wd = x.data, w.data
    b_shape = wd.shape[1:] if b is None else b.data.shape
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b_shape != wd.shape[1:]:
        raise ShapeError(f"linear: need (..., n) @ (n, m) + (m,), got {xd.shape} @ {wd.shape} + {b_shape}")
    out = xd @ wd
    if b is not None:
        out += b.data

    def vjp(g):
        gx = g @ np.swapaxes(wd, -1, -2)
        gw = _shrink(np.swapaxes(xd, -1, -2) @ g, wd.shape)
        return (gx, gw) if b is None else (gx, gw, _shrink(g, b_shape))

    return _out(out, (x, w) if b is None else (x, w, b), vjp)


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


def attention(q: Tensor, kv: Tensor, bv: Tensor, n_heads: int, scale, mask: Tensor = None,
              rate: float = 0.0, rng: Rng = None) -> Tensor:
    """Multi-head scaled dot-product attention as one taped op.

    ``q`` is (..., Lq, d) and ``kv`` the (..., Lk, 2d) keys, then values,
    with the same leading axes; the (d,) ``bv`` adds to every value. d splits
    into ``n_heads`` heads on the trailing axis. Per head the weights are
    softmax(q @ kᵀ * scale + mask) over the keys, max-subtracted; given an
    ``rng`` and a nonzero ``rate`` they take inverted dropout (one uniform
    draw of their (..., h, Lq, Lk) shape). The result is the weighted sum of
    values with the heads merged back, (..., Lq, d). ``mask`` is an additive
    constant: a suffix of the scores, or as many axes as they have, each 1 or
    theirs (a (B, 1, 1, Lk) key mask).

    The vjp keeps the weights and, under dropout, the keep scale and the
    dropped weights. Values and gradients are bit-identical to slicing ``kv``,
    adding ``bv``, splitting heads, the softmax, dropout, a matmul and the
    merge run as separate ops.
    """
    qd, kvd = q.data, kv.data
    d = qd.shape[-1]
    if (qd.ndim < 2 or qd.shape[:-2] != kvd.shape[:-2] or kvd.shape[-1] != 2 * d
            or bv.data.shape != (d,) or d % n_heads):
        raise ShapeError(
            f"attention: need (..., Lq, d), (..., Lk, 2d) and (d,) with d divisible by "
            f"{n_heads} heads, got {qd.shape}, {kvd.shape} and {bv.data.shape}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"attention: rate must be in [0, 1), got {rate}")
    c = float(scale)
    n = qd.ndim - 2
    lead = tuple(range(n))
    heads = (n_heads, d // n_heads)
    swap = lead + (n + 1, n, n + 2)  # (..., L, h, dh) <-> (..., h, L, dh)
    qh = np.transpose(qd.reshape(qd.shape[:-1] + heads), swap)
    kvh = kvd.reshape(kvd.shape[:-1] + (2,) + heads)  # (..., Lk, k|v, h, dh)
    kh = np.transpose(kvh[..., 0, :, :], swap)
    vh = np.transpose(kvh[..., 1, :, :] + bv.data.reshape(heads), swap)
    s = qh @ np.swapaxes(kh, -1, -2)
    s *= c
    if mask is not None:
        md = mask.data
        per_axis = md.ndim == s.ndim and all(a in (1, b) for a, b in zip(md.shape, s.shape))
        if not (per_axis or _suffix_ok(s, md)):
            raise ShapeError(f"attention: mask {md.shape} does not fit scores {s.shape}")
        s += md
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    keep = None
    p = s
    if rng is not None and rate != 0.0:
        keep = (rng.uniform(s.shape) >= rate).astype(s.dtype) / (1.0 - rate)
        p = s * keep
    out = np.transpose(p @ vh, swap).reshape(qd.shape)

    def vjp(g):
        g = np.transpose(g.reshape(qd.shape[:-1] + heads), swap)
        gp = g @ np.swapaxes(vh, -1, -2)
        gv = np.transpose(np.swapaxes(p, -1, -2) @ g, swap)
        if keep is not None:
            gp = gp * keep
        gs = s * (gp - (gp * s).sum(axis=-1, keepdims=True))
        gs = gs * c
        gq = gs @ kh
        gk = np.transpose(np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2), swap)
        gkv = np.stack((gk, gv), axis=-3).reshape(kvd.shape)
        return np.transpose(gq, swap).reshape(qd.shape), gkv, gv.sum(axis=lead + (n,)).reshape(d)

    return _out(out, (q, kv, bv), vjp)


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


def dropout(x: Tensor, rate: float, rng: Rng = None) -> Tensor:
    """Inverted dropout drawn from ``rng``; the identity without an Rng (the
    eval pass) or at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
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
    axis = axis + len(ref) if axis < 0 else axis
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
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _out(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inv),))


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
    """Token-level cross-entropy from (B, T, V) logits: the mean over the B
    rows of each row's masked average.

    ``targets`` are (B, T) integer ids; ``mask`` weights positions (defaults
    to all ones), and a row with no unmasked position raises. Stable via
    log-sum-exp; the vjp recomputes the probabilities from the logits rather
    than keep them.
    """
    x = logits.data
    if x.ndim != 3:
        raise ShapeError(f"cross_entropy_logits: logits must be (B, T, V), got {x.shape}")
    vocab = x.shape[-1]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != x.shape[:-1]:
        raise ShapeError(f"cross_entropy_logits: {x.shape} logits vs {targets.shape} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError("cross_entropy_logits: target id out of range")
    m = np.ones(targets.shape, dtype=x.dtype) if mask is None else np.asarray(mask, dtype=x.dtype)
    if m.shape != targets.shape:
        raise ShapeError(f"cross_entropy_logits: {m.shape} mask vs {targets.shape} targets")
    total = m.sum(axis=-1, keepdims=True)  # (B, 1)
    empty = np.flatnonzero(total <= 0)
    if empty.size:
        raise ValueError(
            f"cross_entropy_logits: no unmasked target positions in row {int(empty[0])}")
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
