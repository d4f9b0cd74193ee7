import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionqa import tensor
from fusionqa.tensor import (
    Rng,
    ShapeError,
    Tensor,
    add,
    attention,
    backward,
    bce_with_logits,
    concat,
    cross_entropy_logits,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    no_grad,
    reshape,
    slice_,
    take_rows,
    tanh,
    transpose,
)
from fusionqa.tokenizer import PAD_ID

from tensor_reference import grad_check, matmul, mul, tsum


def t64(data, requires_grad=True):
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


class TestForward:
    def test_softmax_symmetry(self):
        # identity values: the output rows are the attention weights
        kv = Tensor(np.concatenate([np.ones((2, 2)), np.eye(2)], axis=-1))
        out = attention(Tensor(np.zeros((1, 2))), kv, Tensor(np.zeros(2)), 1, 1.0)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_matmul_identity(self):
        rng = Rng(3)
        a = Tensor(rng.normal((3, 3)))
        eye = Tensor(np.eye(3, dtype=np.float32))
        np.testing.assert_array_equal(matmul(eye, a).data, a.data)

    def test_tanh_zero(self):
        assert tanh(Tensor(np.zeros(4))).data.sum() == 0.0

    def test_layer_norm_constant_row_is_zero_pre_affine(self):
        x = Tensor(np.full((2, 8), 3.7))
        gamma = Tensor(np.ones(8))
        beta = Tensor(np.zeros(8))
        out = layer_norm(x, gamma, beta)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_gelu_float32_matches_float64_reference(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 20001),
                            Rng(5).uniform(20000) * 16.0 - 8.0]).astype(np.float32)
        out = gelu(Tensor(x)).data
        assert out.dtype == np.float32
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x64 + 0.044715 * x64**3)))
        assert np.abs(out - ref).max() <= 5e-7

    def test_dropout_eval_is_identity(self):
        # without an Rng (the eval pass), or at rate 0, nothing is dropped
        x = Tensor(np.arange(6, dtype=np.float32))
        assert dropout(x, 0.5) is x
        assert dropout(x, 0.0, rng=Rng(0)) is x

    def test_dropout_train_deterministic_per_seed(self):
        x = Tensor(np.ones(1000))
        a = dropout(x, 0.3, rng=Rng(7)).data
        b = dropout(x, 0.3, rng=Rng(7)).data
        np.testing.assert_array_equal(a, b)
        assert (a == 0).any() and (a > 1.0).any()

    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_embedding_out_of_range(self):
        table = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="out of range"):
            embedding_lookup(table, [0, 4])

    def test_embedding_lookup_rows(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(6, 2))
        emb = embedding_lookup(table, [[5, 3, 5, PAD_ID]])
        assert emb.shape == (1, 4, 2)
        np.testing.assert_array_equal(emb.data[0, 0], emb.data[0, 2])
        np.testing.assert_array_equal(emb.data[0, 3], table.data[PAD_ID])


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = t64([1.0, 2.0, 3.0])
        backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_frozen_tensor_gets_no_grad(self):
        x = t64([1.0, 2.0], requires_grad=False)
        y = t64([3.0, 4.0])
        backward(tsum(mul(x, y)))
        assert x.grad is None
        np.testing.assert_allclose(y.grad, [1.0, 2.0])

    def test_double_backward_doubles_grads(self):
        x = t64([1.0, 2.0, 3.0])
        loss = tsum(mul(x, x))
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError, match="scalar"):
            backward(t64([1.0, 2.0]))

    def test_no_grad_suppresses_taping(self):
        x = t64([1.0])
        with no_grad():
            y = mul(x, x)
        assert y._vjp is None and not y.requires_grad

    def test_grad_stored_on_leaves_only(self):
        x = t64([1.0, 2.0])
        w = t64([3.0, -1.0])
        h = mul(x, w)
        a = gelu(h)
        loss = tsum(mul(a, a))
        backward(loss)
        assert h.grad is None and a.grad is None and loss.grad is None
        assert x.grad is not None and w.grad is not None

    def test_diamond_graph_accumulates(self):
        # loss = sum(x*x + x*x): both paths contribute
        x = t64([1.0, 2.0])
        a = mul(x, x)
        backward(tsum(concat([a, a])))
        np.testing.assert_allclose(x.grad, [4.0, 8.0])


class TestLosses:
    def test_bce_logit_zero_label_one_is_ln2(self):
        loss = bce_with_logits(t64([0.0]), [1.0])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_bce_extreme_logits_finite(self):
        assert bce_with_logits(t64([40.0]), [1.0]).item() < 1e-15
        near40 = bce_with_logits(t64([-40.0]), [1.0]).item()
        assert math.isfinite(near40) and abs(near40 - 40.0) < 1e-6
        assert math.isfinite(bce_with_logits(t64([1e4, -1e4]), [0.0, 1.0]).item())

    def test_bce_matches_naive_formula(self):
        rng = Rng(11)
        logits = rng.normal((32,), std=3.0)
        labels = (rng.uniform((32,)) > 0.5).astype(np.float64)
        stable = bce_with_logits(t64(logits), labels).item()
        sig = 1.0 / (1.0 + np.exp(-logits))
        naive = -np.mean(labels * np.log(sig) + (1 - labels) * np.log(1 - sig))
        assert abs(stable - naive) < 1e-6

    def test_cross_entropy_uniform_logits_is_ln_v(self):
        v = 37
        loss = cross_entropy_logits(t64(np.zeros((1, 5, v))), [np.arange(5)])
        assert abs(loss.item() - math.log(v)) < 1e-9

    def test_cross_entropy_mask_excludes_positions(self):
        rng = Rng(2)
        logits = rng.normal((1, 6, 9))
        targets = rng.integers(0, 9, size=(1, 6))
        base = cross_entropy_logits(t64(logits[:, :4]), targets[:, :4]).item()
        masked = cross_entropy_logits(
            t64(logits), targets, mask=[[1, 1, 1, 1, 0, 0]]
        ).item()
        assert abs(base - masked) < 1e-12

    def test_cross_entropy_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no unmasked target positions in row 0"):
            cross_entropy_logits(t64(np.zeros((1, 2, 3))), [[0, 1]], mask=[[0, 0]])


class TestGradCheck:
    def test_polynomial(self):
        params = [t64([0.3, -1.2, 2.0])]
        err = grad_check(lambda ps: tsum(mul(ps[0], ps[0])), params, eps=1e-4)
        assert err < 1e-8

    def test_requires_float64(self):
        p32 = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda ps: tsum(ps[0]), [p32])

    def test_eps_bounds(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda ps: tsum(ps[0]), [t64([1.0])], eps=1e-2)

    @pytest.mark.parametrize(
        "name",
        ["matmul", "add_bias", "mul", "tanh", "gelu", "softmax", "layer_norm",
         "embedding", "take_rows", "concat_slice", "bce", "ce"],
    )
    def test_each_op_composite(self, name):
        rng = Rng(zlib.crc32(name.encode()))
        if name == "matmul":
            a, b = t64(rng.normal((3, 4))), t64(rng.normal((4, 2)))
            fn = lambda ps: tsum(tanh(matmul(ps[0], ps[1])))
            params = [a, b]
        elif name == "add_bias":
            a, b = t64(rng.normal((3, 4))), t64(rng.normal((4,)))
            fn = lambda ps: tsum(mul(add(ps[0], ps[1]), add(ps[0], ps[1])))
            params = [a, b]
        elif name == "mul":
            a, b = t64(rng.normal((5,))), t64(rng.normal((5,)))
            fn = lambda ps: tsum(mul(ps[0], ps[1]))
            params = [a, b]
        elif name == "tanh":
            params = [t64(rng.normal((6,)))]
            fn = lambda ps: tsum(tanh(ps[0]))
        elif name == "gelu":
            params = [t64(rng.normal((6,)))]
            fn = lambda ps: tsum(gelu(ps[0]))
        elif name == "softmax":
            params = [t64(rng.normal((2, 4))), t64(rng.normal((5, 8))), t64(rng.normal((4,)))]
            fn = lambda ps: tsum(mul(attention(ps[0], ps[1], ps[2], 2, 0.7),
                                     attention(ps[0], ps[1], ps[2], 2, 0.7)))
        elif name == "layer_norm":
            x, g, b = t64(rng.normal((3, 7))), t64(rng.normal((7,))), t64(rng.normal((7,)))
            fn = lambda ps: tsum(tanh(layer_norm(ps[0], ps[1], ps[2])))
            params = [x, g, b]
        elif name == "embedding":
            params = [t64(rng.normal((5, 3)))]
            fn = lambda ps: tsum(tanh(embedding_lookup(ps[0], [0, 2, 2, 4])))
        elif name == "take_rows":
            params = [t64(rng.normal((5, 3)))]  # row 1 is not taken
            fn = lambda ps: tsum(tanh(take_rows(ps[0], [[4, 0], [2, 3]])))
        elif name == "concat_slice":
            a, b = t64(rng.normal((2, 3))), t64(rng.normal((4, 3)))
            fn = lambda ps: tsum(
                mul(
                    slice_(concat([ps[0], ps[1]], axis=0), (slice(1, 5),)),
                    slice_(concat([ps[0], ps[1]], axis=0), (slice(1, 5),)),
                )
            )
            params = [a, b]
        elif name == "bce":
            params = [t64(rng.normal((8,), std=2.0))]
            labels = (rng.uniform((8,)) > 0.5).astype(np.float64)
            fn = lambda ps: bce_with_logits(ps[0], labels)
        else:
            params = [t64(rng.normal((1, 4, 9)))]
            targets = rng.integers(0, 9, size=(1, 4))
            fn = lambda ps: cross_entropy_logits(ps[0], targets)
        assert grad_check(fn, params, eps=1e-4) < 1e-7

    def test_reshape_transpose_gradients(self):
        rng = Rng(5)
        x = t64(rng.normal((2, 3, 4)))
        fn = lambda ps: tsum(
            tanh(reshape(transpose(ps[0], (2, 0, 1)), (4, 6)))
        )
        assert grad_check(fn, [x], eps=1e-4) < 1e-8

    def test_dropout_gradient_with_fixed_mask(self):
        # fixed seed makes the mask deterministic across probes
        x = t64(np.linspace(-1, 1, 16))

        def fn(ps):
            return tsum(dropout(ps[0], 0.25, rng=Rng(123)))

        assert grad_check(fn, [x], eps=1e-4) < 1e-8


def _scale_reference(a, c):
    """The removed ``scale`` op, kept as the reference the fused ops replay."""
    return tensor._out(a.data * c, (a,), lambda g: (g * c,))


def _softmax_reference(a):
    """The removed ``softmax_lastdim`` op, the same way."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return tensor._out(s, (a,), vjp)


def _attention_reference(q, k, c, mask):
    """The attention weights softmax(q @ kᵀ * c + mask) composed of separate
    ops, as the model ran them before they were fused."""
    lead = tuple(range(k.ndim - 2))
    scores = _scale_reference(matmul(q, transpose(k, lead + (k.ndim - 1, k.ndim - 2))), c)
    if mask is not None:
        if mask.ndim == scores.ndim:
            mask = Tensor._wrap(np.broadcast_to(mask.data, scores.shape))
        scores = add(scores, mask)
    return _softmax_reference(scores)


def _composed_attention(q, kv, bv, n_heads, c, mask, rate=0.0, rng=None):
    """``attention`` as separate ops: keys and values sliced from ``kv``,
    the value bias added, heads split by reshape and transpose, the weights,
    dropout, the weighted sum of values and the merge."""
    n = q.ndim - 2
    d = q.shape[-1]
    lead = (slice(None),) * (n + 1)
    k = slice_(kv, lead + (slice(0, d),))
    v = add(slice_(kv, lead + (slice(d, 2 * d),)), bv)
    swap = tuple(range(n)) + (n + 1, n, n + 2)  # (..., L, h, dh) <-> (..., h, L, dh)
    dh = q.shape[-1] // n_heads

    def split_heads(t):
        return transpose(reshape(t, t.shape[:-1] + (n_heads, dh)), swap)

    probs = _attention_reference(split_heads(q), split_heads(k), c, mask)
    probs = dropout(probs, rate, rng=rng)
    return reshape(transpose(matmul(probs, split_heads(v)), swap), q.shape)


def _key_mask(batch, length, rng):
    """A (B, 1, 1, L) additive key mask hiding a random tail of each row."""
    keep = rng.integers(1, length + 1, size=batch)
    row = np.where(np.arange(length)[None, :] < keep[:, None], 0.0, -np.inf)
    return row[:, None, None, :]


# (q shape, key shape, heads, mask kind, dropout rate): 2-D, 3-D and 4-D
# operands; no mask, a causal (Lq, Lk) mask, a per-axis key mask, a ragged
# (B, 1, 1, Lk) key mask as padding makes it, the causal mask of three
# positions after four cached ones, and dropout on the weights
ATTENTION_CASES = [
    pytest.param((4, 6), (5, 6), 2, None, 0.0, id="2d"),
    pytest.param((5, 6), (5, 6), 3, "causal", 0.0, id="2d_causal"),
    pytest.param((2, 4, 6), (2, 5, 6), 2, None, 0.0, id="3d"),
    pytest.param((2, 5, 6), (2, 5, 6), 2, "causal", 0.0, id="3d_causal"),
    pytest.param((3, 2, 4, 6), (3, 2, 5, 6), 3, None, 0.0, id="4d"),
    pytest.param((3, 2, 5, 6), (3, 2, 5, 6), 3, "causal", 0.0, id="4d_causal"),
    pytest.param((3, 2, 4, 6), (3, 2, 5, 6), 2, "key", 0.0, id="4d_key_mask"),
    pytest.param((3, 4, 6), (3, 7, 6), 2, "key", 0.0, id="ragged_key_mask"),
    pytest.param((2, 3, 6), (2, 7, 6), 3, "causal", 0.0, id="causal_cache_offset"),
    pytest.param((2, 4, 6), (2, 5, 6), 2, "key", 0.25, id="dropout"),
]


def _attention_inputs(q_shape, k_shape, kind, dtype, seed=0):
    """q, the (..., Lk, 2d) keys and values, the (d,) value bias and the
    mask of one case."""
    rng = Rng(seed)
    q, kv, bv = (Tensor(rng.normal(s), requires_grad=True, dtype=dtype)
                 for s in (q_shape, k_shape[:-1] + (2 * k_shape[-1],), k_shape[-1:]))
    lq, lk = q_shape[-2], k_shape[-2]
    mask = None
    if kind == "causal":
        # query i sits at position lk - lq + i and sees keys up to it
        mask = Tensor(np.triu(np.full((lq, lk), -np.inf), k=lk - lq + 1), dtype=dtype)
    elif kind == "key":
        # one row per leading index: (B, 1, 1, Lk), or (B, C, 1, 1, Lk) for 4-D operands
        rows = _key_mask(int(np.prod(q_shape[:-2])), lk, rng)
        mask = Tensor(rows.reshape(q_shape[:-2] + (1, 1, lk)), dtype=dtype)
    return q, kv, bv, mask


def _grads(out_fn, params, upstream):
    """Forward value and every parameter's gradient of sum(out * upstream)."""
    for p in params:
        p.grad = None
    out = out_fn()
    backward(tsum(mul(out, Tensor(upstream, dtype=out.data.dtype))))
    return out.data, [p.grad for p in params]


class TestFusedOps:
    """The fused ops give the composed ops' values and gradients bit for bit
    in float32, and pass a float64 gradient check."""

    @pytest.mark.parametrize("x_shape", [(5, 8), (3, 5, 8), (2, 3, 5, 8)],
                             ids=["2d", "3d", "4d"])
    def test_linear_matches_matmul_then_add(self, x_shape):
        rng = Rng(len(x_shape))
        x = Tensor(rng.normal(x_shape), requires_grad=True)
        w = Tensor(rng.normal((8, 6)), requires_grad=True)
        b = Tensor(rng.normal((6,)), requires_grad=True)
        upstream = rng.normal(x_shape[:-1] + (6,))
        fused = _grads(lambda: linear(x, w, b), [x, w, b], upstream)
        composed = _grads(lambda: add(matmul(x, w), b), [x, w, b], upstream)
        assert fused[0].dtype == np.float32
        assert np.array_equal(fused[0], composed[0])
        for got, want in zip(fused[1], composed[1]):
            assert np.array_equal(got, want)

    def test_linear_through_a_transposed_weight(self):
        # the lm head and the reranker head multiply by a transposed (out, in) weight
        rng = Rng(4)
        x = Tensor(rng.normal((2, 5, 8)), requires_grad=True)
        w = Tensor(rng.normal((6, 8)), requires_grad=True)
        b = Tensor(rng.normal((6,)), requires_grad=True)
        upstream = rng.normal((2, 5, 6))
        fused = _grads(lambda: linear(x, transpose(w, (1, 0)), b), [x, w, b], upstream)
        composed = _grads(lambda: add(matmul(x, transpose(w, (1, 0))), b), [x, w, b], upstream)
        assert np.array_equal(fused[0], composed[0])
        for got, want in zip(fused[1], composed[1]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("q_shape, k_shape, heads, kind, rate", ATTENTION_CASES)
    def test_attention_probs_matches_composed_ops(self, q_shape, k_shape, heads, kind, rate):
        # the weights, their dropout and the context they make, bit for bit;
        # the key and value gradients share one array
        q, kv, bv, mask = _attention_inputs(q_shape, k_shape, kind, np.float32)
        upstream = Rng(1).normal(q_shape)
        c = 1.0 / math.sqrt(q_shape[-1] // heads)
        fused = _grads(lambda: attention(q, kv, bv, heads, c, mask, rate=rate, rng=Rng(4)),
                       [q, kv, bv], upstream)
        composed = _grads(lambda: _composed_attention(q, kv, bv, heads, c, mask, rate=rate,
                                                      rng=Rng(4)),
                          [q, kv, bv], upstream)
        assert fused[0].dtype == np.float32 and fused[0].shape == q_shape
        assert np.array_equal(fused[0], composed[0])
        for got, want in zip(fused[1], composed[1]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("q_shape, k_shape, heads, kind, rate", ATTENTION_CASES)
    def test_attention_probs_grad_check(self, q_shape, k_shape, heads, kind, rate):
        # a fresh Rng per call keeps the dropout keep mask fixed across probes
        q, kv, bv, mask = _attention_inputs(q_shape, k_shape, kind, np.float64, seed=2)
        weights = Tensor(Rng(3).normal(q_shape), dtype=np.float64)
        fn = lambda ps: tsum(mul(attention(ps[0], ps[1], ps[2], heads, 0.6, mask, rate=rate,
                                           rng=Rng(5)), weights))
        assert grad_check(fn, [q, kv, bv], eps=1e-5) < 1e-7

    def test_attention_dropout_draws_the_weights_shape(self):
        # one uniform draw of (..., h, Lq, Lk) from the stream, as the
        # separate dropout op drew it; without an Rng the rate drops nothing
        q, kv, bv, _ = _attention_inputs((2, 4, 6), (2, 5, 6), None, np.float32)
        rng = Rng(8)
        attention(q, kv, bv, 3, 0.5, rate=0.1, rng=rng)
        want = Rng(8)
        want.uniform((2, 3, 4, 5))
        assert rng.uniform() == want.uniform()
        assert np.array_equal(attention(q, kv, bv, 3, 0.5, rate=0.1).data,
                              attention(q, kv, bv, 3, 0.5).data)

    def test_linear_grad_check(self):
        rng = Rng(6)
        params = [t64(rng.normal((2, 3, 4))), t64(rng.normal((4, 5))), t64(rng.normal((5,)))]
        fn = lambda ps: tsum(tanh(linear(ps[0], ps[1], ps[2])))
        assert grad_check(fn, params, eps=1e-5) < 1e-7

    def test_linear_without_bias_grad_check(self):
        rng = Rng(6)
        params = [t64(rng.normal((2, 3, 4))), t64(rng.normal((4, 5)))]
        fn = lambda ps: tsum(tanh(linear(ps[0], ps[1])))
        assert grad_check(fn, params, eps=1e-5) < 1e-7

    def test_linear_without_bias_is_the_product(self):
        # no bias add and no bias gradient: the matmul's value and gradients
        rng = Rng(7)
        x = Tensor(rng.normal((3, 5, 8)), requires_grad=True)
        w = Tensor(rng.normal((8, 6)), requires_grad=True)
        upstream = rng.normal((3, 5, 6))
        fused = _grads(lambda: linear(x, w), [x, w], upstream)
        composed = _grads(lambda: matmul(x, w), [x, w], upstream)
        assert np.array_equal(fused[0], composed[0])
        for got, want in zip(fused[1], composed[1]):
            assert np.array_equal(got, want)
        assert len(linear(x, w)._parents) == 2

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(4)))
        ones = lambda *shape: Tensor(np.ones(shape))
        with pytest.raises(ShapeError, match=r"attention: .* got \(2, 3\), \(4, 3\) and"):
            attention(ones(2, 3), ones(4, 3), ones(3), 1, 1.0)  # keys without values
        with pytest.raises(ShapeError, match="attention"):
            attention(ones(2, 2, 3), ones(3, 4, 6), ones(3), 1, 1.0)  # leading axes differ
        with pytest.raises(ShapeError, match=r"attention: .* \(4, 6\) and \(6,\)"):
            attention(ones(2, 3), ones(4, 6), ones(6), 1, 1.0)  # a bias over keys and values
        with pytest.raises(ShapeError, match="divisible by 2 heads"):
            attention(ones(2, 3), ones(4, 6), ones(3), 2, 1.0)
        with pytest.raises(ShapeError, match=r"attention: mask \(3,\)"):
            attention(ones(2, 3), ones(4, 6), ones(3), 1, 1.0, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match=r"linear: .* \+ \(5,\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_concat_negative_axis_is_counted_from_the_end(self):
        rng = Rng(3)
        x, y = t64(rng.normal((2, 3))), t64(rng.normal((2, 4)))
        upstream = rng.normal((2, 7))
        want_out, want_grads = _grads(lambda: concat([x, y], axis=1), [x, y], upstream)
        got_out, got_grads = _grads(lambda: concat([x, y], axis=-1), [x, y], upstream)
        assert got_out.shape == (2, 7)
        assert np.array_equal(got_out, want_out)
        for got, want in zip(got_grads, want_grads):
            assert np.array_equal(got, want)
        with pytest.raises(ShapeError, match=r"concat: shapes \(2, 3\) and \(3, 4\) differ off"):
            concat([x, t64(rng.normal((3, 4)))], axis=-1)


class TestProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows_sum_to_one_and_shift_invariant(self, row, c):
        # a unit query on the first axis makes the scores the keys' first
        # column, identity values make the output the weights, and a constant
        # mask row shifts every score by c
        n = len(row)
        one = Tensor(np.eye(1, n), dtype=np.float64)
        keys = np.zeros((n, n))
        keys[:, 0] = row
        kv = Tensor(np.concatenate([keys, np.eye(n)], axis=-1), dtype=np.float64)
        s = attention(one, kv, Tensor(np.zeros(n)), 1, 1.0).data
        assert abs(s.sum() - 1.0) < 1e-6
        shift = Tensor(np.full((1, n), c), dtype=np.float64)
        shifted = attention(one, kv, Tensor(np.zeros(n)), 1, 1.0, shift).data
        assert np.max(np.abs(s - shifted)) < 1e-6

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rng_reproducible(self, seed):
        a = Rng(seed)
        b = Rng(seed)
        np.testing.assert_array_equal(a.normal((7,)), b.normal((7,)))
        np.testing.assert_array_equal(
            a.sample_indices(20, 5), b.sample_indices(20, 5)
        )

    def test_rng_children_independent(self):
        root = Rng(42)
        c1, c2 = root.child("a"), root.child("b")
        assert c1.seed != c2.seed
        assert Rng(42).child("a").seed == c1.seed

    def test_truncated_normal_bounded(self):
        draws = Rng(9).truncated_normal((5000,), std=0.02)
        assert np.abs(draws).max() <= 0.04 + 1e-12
