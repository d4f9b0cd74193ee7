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
    attention_probs,
    backward,
    bce_with_logits,
    concat,
    cross_entropy_logits,
    dropout,
    embedding_lookup,
    gelu,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    reshape,
    slice_,
    take_rows,
    tanh,
    transpose,
    tsum,
)


def t64(data, requires_grad=True):
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


class TestForward:
    def test_softmax_symmetry(self):
        out = attention_probs(Tensor(np.zeros((1, 3))), Tensor(np.ones((2, 3))), 1.0)
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
        x = Tensor(np.arange(6, dtype=np.float32))
        assert dropout(x, 0.5, rng=Rng(0), train=False) is x

    def test_dropout_train_deterministic_per_seed(self):
        x = Tensor(np.ones(1000))
        a = dropout(x, 0.3, rng=Rng(7), train=True).data
        b = dropout(x, 0.3, rng=Rng(7), train=True).data
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
        loss = cross_entropy_logits(t64(np.zeros((5, v))), np.arange(5))
        assert abs(loss.item() - math.log(v)) < 1e-9

    def test_cross_entropy_mask_excludes_positions(self):
        rng = Rng(2)
        logits = rng.normal((6, 9))
        targets = rng.integers(0, 9, size=6)
        base = cross_entropy_logits(t64(logits[:4]), targets[:4]).item()
        masked = cross_entropy_logits(
            t64(logits), targets, mask=[1, 1, 1, 1, 0, 0]
        ).item()
        assert abs(base - masked) < 1e-12

    def test_cross_entropy_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="unmasked"):
            cross_entropy_logits(t64(np.zeros((2, 3))), [0, 1], mask=[0, 0])


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
            params = [t64(rng.normal((2, 3))), t64(rng.normal((5, 3)))]
            fn = lambda ps: tsum(mul(attention_probs(ps[0], ps[1], 0.7),
                                     attention_probs(ps[0], ps[1], 0.7)))
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
            params = [t64(rng.normal((4, 9)))]
            targets = rng.integers(0, 9, size=4)
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
            return tsum(dropout(ps[0], 0.25, rng=Rng(123), train=True))

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
    """attention_probs as the model composed it before the fused op."""
    lead = tuple(range(k.ndim - 2))
    scores = _scale_reference(matmul(q, transpose(k, lead + (k.ndim - 1, k.ndim - 2))), c)
    if mask is not None:
        if mask.ndim == scores.ndim:
            mask = Tensor._wrap(np.broadcast_to(mask.data, scores.shape))
        scores = add(scores, mask)
    return _softmax_reference(scores)


def _key_mask(batch, length, rng):
    """A (B, 1, 1, L) additive key mask hiding a random tail of each row."""
    keep = rng.integers(1, length + 1, size=batch)
    row = np.where(np.arange(length)[None, :] < keep[:, None], 0.0, -np.inf)
    return row[:, None, None, :]


# (q shape, k shape, mask kind): 2-D, 3-D and 4-D operands; no mask, a
# causal (Lq, Lk) mask, and a (B, 1, 1, Lk) key mask
ATTENTION_CASES = [
    pytest.param((4, 3), (6, 3), None, id="2d"),
    pytest.param((5, 3), (5, 3), "causal", id="2d_causal"),
    pytest.param((2, 4, 3), (2, 6, 3), None, id="3d"),
    pytest.param((2, 5, 3), (2, 5, 3), "causal", id="3d_causal"),
    pytest.param((3, 2, 4, 3), (3, 2, 6, 3), None, id="4d"),
    pytest.param((3, 2, 5, 3), (3, 2, 5, 3), "causal", id="4d_causal"),
    pytest.param((3, 2, 4, 3), (3, 2, 6, 3), "key", id="4d_key_mask"),
]


def _attention_inputs(q_shape, k_shape, kind, dtype, seed=0):
    rng = Rng(seed)
    q = Tensor(rng.normal(q_shape), requires_grad=True, dtype=dtype)
    k = Tensor(rng.normal(k_shape), requires_grad=True, dtype=dtype)
    lq, lk = q_shape[-2], k_shape[-2]
    mask = None
    if kind == "causal":
        mask = Tensor(np.triu(np.full((lq, lk), -np.inf), k=1), dtype=dtype)
    elif kind == "key":
        mask = Tensor(_key_mask(q_shape[0], lk, rng), dtype=dtype)
    return q, k, mask


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

    @pytest.mark.parametrize("q_shape, k_shape, kind", ATTENTION_CASES)
    def test_attention_probs_matches_composed_ops(self, q_shape, k_shape, kind):
        q, k, mask = _attention_inputs(q_shape, k_shape, kind, np.float32)
        upstream = Rng(1).normal(q_shape[:-1] + (k_shape[-2],))
        c = 1.0 / math.sqrt(q_shape[-1])
        fused = _grads(lambda: attention_probs(q, k, c, mask), [q, k], upstream)
        composed = _grads(lambda: _attention_reference(q, k, c, mask), [q, k], upstream)
        assert fused[0].dtype == np.float32
        assert np.array_equal(fused[0], composed[0])
        for got, want in zip(fused[1], composed[1]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("q_shape, k_shape, kind", ATTENTION_CASES)
    def test_attention_probs_grad_check(self, q_shape, k_shape, kind):
        q, k, mask = _attention_inputs(q_shape, k_shape, kind, np.float64, seed=2)
        weights = Tensor(Rng(3).normal(q_shape[:-1] + (k_shape[-2],)), dtype=np.float64)
        fn = lambda ps: tsum(mul(attention_probs(ps[0], ps[1], 0.6, mask), weights))
        assert grad_check(fn, [q, k], eps=1e-5) < 1e-7

    def test_linear_grad_check(self):
        rng = Rng(6)
        params = [t64(rng.normal((2, 3, 4))), t64(rng.normal((4, 5))), t64(rng.normal((5,)))]
        fn = lambda ps: tsum(tanh(linear(ps[0], ps[1], ps[2])))
        assert grad_check(fn, params, eps=1e-5) < 1e-7

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match="attention_probs"):
            attention_probs(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), 1.0)
        with pytest.raises(ShapeError, match=r"attention_probs: mask \(3,\)"):
            attention_probs(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), 1.0,
                            Tensor(np.zeros(3)))


class TestProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows_sum_to_one_and_shift_invariant(self, row, c):
        # with a one-dimensional unit query the scores are the keys themselves,
        # and a constant mask row shifts every score by c
        one = Tensor(np.ones((1, 1)), dtype=np.float64)
        keys = Tensor(np.array(row)[:, None], dtype=np.float64)
        s = attention_probs(one, keys, 1.0).data
        assert abs(s.sum() - 1.0) < 1e-6
        shift = Tensor(np.full((1, len(row)), c), dtype=np.float64)
        shifted = attention_probs(one, keys, 1.0, shift).data
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
