"""Tensor engine: forward semantics, autodiff, stability, error contracts."""

import contextlib
import math
import sys
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import restr.tensor as T
from restr.data import VOCABULARY, generate
from restr.decoder import forward, init_model
from restr.encoders import ModelConfig
from restr.tensor import GraphError, ShapeError, Tensor
from restr.gradcheck import grad_check
from restr.training import patch_labels, segmentation_loss

from conftest import A5, run_with_blas_threads


_UPSAMPLE = """
import hashlib
import numpy as np
import restr.tensor as T
rng = np.random.default_rng(0)
x = T.Tensor(rng.standard_normal((240, 240, 2)), requires_grad=True)
out = T.upsample2x_bilinear(x)
T.backward(T.sum_all(T.hadamard(out, T.Tensor(rng.standard_normal(out.shape)))))
print(hashlib.sha256(out.data.tobytes()).hexdigest(), hashlib.sha256(x.grad.tobytes()).hexdigest())
"""


def tensor(data, grad=True):
    return Tensor(np.asarray(data, dtype=float), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        b = np.arange(6, dtype=float).reshape(2, 3)
        out = T.matmul(Tensor(np.eye(2)), Tensor(b))
        npt.assert_array_equal(out.data, b)

    def test_direct_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        npt.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_gradient_5x7_7x3(self):
        rng = np.random.default_rng(11)
        err = grad_check(T.matmul,
                         [tensor(rng.standard_normal((5, 7))),
                          tensor(rng.standard_normal((7, 3)))], 42)
        assert err <= 1e-6, err

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_operand_below_2d_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros(2)), Tensor(np.zeros((2, 2))))

    def test_batch_times_weight_is_per_sample(self):
        rng = np.random.default_rng(19)
        a, w = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 2))
        out = T.matmul(Tensor(a), Tensor(w)).data
        npt.assert_allclose(out, np.stack([x @ w for x in a]), rtol=1e-12)

    def test_mismatched_batch_axes_rejected(self):
        with pytest.raises(ShapeError, match="batch"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_macs_count_batch_axes(self):
        with T.no_grad(), T.count_macs() as counter:
            T.matmul(Tensor(np.zeros((2, 3, 4, 5))), Tensor(np.zeros((2, 3, 5, 6))))
            T.matmul(Tensor(np.zeros((7, 4, 5))), Tensor(np.zeros((5, 6))))
        assert counter.macs == 2 * 3 * 4 * 5 * 6 + 7 * 4 * 5 * 6


class TestSoftmax:
    def test_uniform_row(self):
        out = T.softmax(Tensor([[7.0, 7.0, 7.0]]), axis=-1)
        npt.assert_allclose(out.data, [[1 / 3] * 3])

    def test_extreme_values_no_overflow(self):
        out = T.softmax(Tensor([[1000.0, 0.0]]), axis=-1)
        assert np.isfinite(out.data).all()
        npt.assert_allclose(out.data[0, 0], 1.0)
        assert out.data[0, 1] < 1e-300

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = T.softmax(Tensor(rng.standard_normal((4, 6)) * 5), axis=-1)
        npt.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 2))), axis=2)


def packed_qkv(rng, batch, n, heads, dh, grad=True):
    """A token-major (batch, n, 3·heads·dh) q/k/v leaf, as the qkv matmul
    gives it."""
    return tensor(rng.standard_normal((batch, n, 3 * heads * dh)), grad)


def attention_chain(qkv, heads):
    """Attention as separate tape ops: split the heads, then slices, scale,
    q·kᵀ, softmax, ·v, and the heads side by side again."""
    batch, n, width = qkv.shape
    dh = width // (3 * heads)
    swap = (0, 2, 1, 3)
    packed = T.transpose(T.reshape(qkv, (batch, n, 3 * heads, dh)), swap)
    q = T.scale(T.slice_axis(packed, -3, 0, heads), 1.0 / math.sqrt(dh))
    k = T.slice_axis(packed, -3, heads, 2 * heads)
    v = T.slice_axis(packed, -3, 2 * heads, 3 * heads)
    out = T.matmul(T.softmax(T.matmul(q, T.transpose(k)), axis=-1), v)
    return T.reshape(T.transpose(out, swap), (batch, n, heads * dh))


def attention_and_grad(f, seed, batch, n, heads, dh, scale=1.0):
    """Output, qkv gradient and attention maps of ``f`` under a fixed output
    adjoint; ``scale``, a number or an array that broadcasts against
    (n, 3·heads·dh), multiplies the random q/k/v."""
    rng = np.random.default_rng(seed)
    qkv = packed_qkv(rng, batch, n, heads, dh)
    qkv.data *= scale
    with T.attention_maps() as maps:
        out = f(qkv, heads)
    T.backward(T.sum_all(T.hadamard(out, Tensor(rng.standard_normal(out.shape)))))
    return out.data, qkv.grad, maps


def assert_close(actual, desired):
    npt.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.abs(desired).max())


class TestAttention:
    @pytest.mark.parametrize("batch,n,heads,dh", [(8, 84, 4, 16), (8, 21, 4, 16),
                                                  (1, 7, 2, 3), (3, 1, 1, 4)])
    def test_one_block_equals_op_chain(self, batch, n, heads, dh):
        out, grad, _ = attention_and_grad(attention_chain, 0, batch, n, heads, dh)
        fused, fused_grad, _ = attention_and_grad(T.attention, 0, batch, n, heads, dh)
        assert_close(fused, out)
        assert_close(fused_grad, grad)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 24), st.integers(1, 3), st.integers(1, 5),
           st.integers(0, 2**16))
    def test_no_grad_and_sink_calls_equal_recorded_call(self, batch, n, heads, dh, seed):
        out, _, recorded_maps = attention_and_grad(T.attention, seed, batch, n, heads, dh)
        with T.no_grad():
            qkv = packed_qkv(np.random.default_rng(seed), batch, n, heads, dh)
            no_grad_out = T.attention(qkv, heads).data
            with T.attention_maps() as maps:
                maps_out = T.attention(qkv, heads).data
        npt.assert_array_equal(no_grad_out, out)
        npt.assert_array_equal(maps_out, out)
        npt.assert_array_equal(maps[0], recorded_maps[0])

    def test_a8_geometry_equals_op_chain(self):
        """The eval_r480 shape: 921 tokens, 2 heads of d_h = 8; recorded and
        under no_grad."""
        n, heads, dh = 921, 2, 8
        out, grad, _ = attention_and_grad(attention_chain, 1, 1, n, heads, dh)
        fused, fused_grad, _ = attention_and_grad(T.attention, 1, 1, n, heads, dh)
        assert_close(fused, out)
        assert_close(fused_grad, grad)
        with T.no_grad():
            qkv = packed_qkv(np.random.default_rng(1), 1, n, heads, dh)
            assert_close(T.attention(qkv, heads).data, out)

    def test_extreme_logits_equal_op_chain(self):
        batch, n, heads, dh, scale = 2, 40, 2, 4, 60.0
        rng = np.random.default_rng(9)
        packed = rng.standard_normal((batch, n, 3 * heads, dh)).swapaxes(1, 2) * scale
        scores = packed[:, :heads] @ packed[:, heads:2 * heads].swapaxes(-1, -2)
        assert (np.ptp(scores, axis=-1) / math.sqrt(dh)).min() > 1e3
        out, grad, _ = attention_and_grad(attention_chain, 9, batch, n, heads, dh, scale)
        fused, fused_grad, _ = attention_and_grad(T.attention, 9, batch, n, heads, dh,
                                                  scale)
        assert np.isfinite(fused).all() and np.isfinite(fused_grad).all()
        assert_close(fused, out)
        assert_close(fused_grad, grad)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 24), st.integers(1, 3), st.integers(1, 5),
           st.integers(0, 2**16))
    def test_shifted_equals_unshifted(self, batch, n, heads, dh, seed):
        """Every row shifted by its max (τ = 0) against none (τ = ∞)."""
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            for tau in (0.0, math.inf):
                mp.setattr(T, "_SHIFT_FREE_SCORES", tau)
                runs.append(attention_and_grad(T.attention, seed, batch, n, heads, dh))
        for actual, desired in zip(*runs):
            assert_close(np.asarray(actual), np.asarray(desired))

    def test_overflowing_rows_shift_the_call_and_equal_op_chain(self):
        """The q of query rows 6 and 7 scaled ×1000, so their unshifted exp
        would overflow: the bound exceeds τ, the whole call takes the row-max
        shift, and its output and gradient stay finite."""
        batch, n, heads, dh = 2, 12, 2, 4
        scale = np.ones((n, 3 * heads * dh))
        scale[6:8, :heads * dh] = 1000.0
        qkv = packed_qkv(np.random.default_rng(4), batch, n, heads, dh).data * scale
        q, k = (qkv[..., i * heads * dh:(i + 1) * heads * dh].reshape(batch, n, heads, dh)
                for i in (0, 1))
        bound = (np.linalg.norm(q, axis=-1) / math.sqrt(dh)
                 * np.linalg.norm(k, axis=-1).max(axis=1, keepdims=True))
        assert bound.max() > T._SHIFT_FREE_SCORES
        scores = np.einsum("bihd,bjhd->bhij", q, k) / math.sqrt(dh)
        assert scores.max() > math.log(np.finfo(float).max)  # exp(scores) overflows
        out, grad, _ = attention_and_grad(attention_chain, 4, batch, n, heads, dh, scale)
        fused, fused_grad, _ = attention_and_grad(T.attention, 4, batch, n, heads, dh, scale)
        assert np.isfinite(fused).all() and np.isfinite(fused_grad).all()
        assert_close(fused, out)
        assert_close(fused_grad, grad)

    @pytest.mark.parametrize("tau", [0.0, math.inf])
    @pytest.mark.parametrize("where", ["q", "k", "v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_gives_non_finite_output(self, monkeypatch, tau, where, bad):
        batch, n, heads, dh = 2, 6, 2, 3
        monkeypatch.setattr(T, "_SHIFT_FREE_SCORES", tau)
        qkv = packed_qkv(np.random.default_rng(8), batch, n, heads, dh, grad=False)
        qkv.data[1, 4, "qkv".index(where) * heads * dh + dh + 2] = bad
        with np.errstate(all="ignore"):
            out = T.attention(qkv, heads).data
        assert not np.isfinite(out).all()

    @pytest.mark.parametrize("grad", [True, False])
    def test_sink_gets_row_stochastic_probs(self, grad):
        batch, n, heads = 2, 10, 3
        qkv = packed_qkv(np.random.default_rng(5), batch, n, heads, 4, grad)
        with T.attention_maps() as maps:
            T.attention(qkv, heads)
        assert maps[0].shape == (batch, heads, n, n)
        assert (maps[0] > 0).all()
        npt.assert_allclose(maps[0].sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("grad", [True, False])
    def test_a8_call_peaks_near_one_score_array(self, grad):
        """The (h, n, n) scores are the call's one large array, recorded or
        under no_grad: 13.6 MiB traced against 12.9 MiB for the scores."""
        n, heads, dh = 921, 2, 8
        qkv = packed_qkv(np.random.default_rng(2), 1, n, heads, dh)
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if grad else T.no_grad():
                start = tracemalloc.get_traced_memory()[0]
                out = T.attention(qkv, heads)
                peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            T.reset_graph()
        assert out.requires_grad == grad
        assert peak <= 1.1 * heads * n * n * 8, f"{peak / 2**20:.2f} MiB"

    def test_macs_closed_form(self):
        batch, n, heads, dh = 3, 11, 2, 5
        qkv = packed_qkv(np.random.default_rng(6), batch, n, heads, dh, grad=False)
        with T.count_macs() as counter:
            T.attention(qkv, heads)
        assert counter.macs == 2 * batch * heads * n * n * dh

    def test_one_tape_node(self):
        T.reset_graph()
        qkv = packed_qkv(np.random.default_rng(7), 2, 5, 2, 3)
        out = T.attention(qkv, 2)
        assert out.op == "attention" and out.shape == (2, 5, 6)
        assert [node.tag for node in T._state.tape] == ["attention"]
        T.reset_graph()

    # a last axis not divisible by 3·heads (twice), a single axis, no heads,
    # no tokens
    @pytest.mark.parametrize("shape,heads", [((2, 5, 9), 2), ((5, 4), 2),
                                             ((12,), 2), ((2, 5, 6), 0),
                                             ((1, 0, 6), 2)])
    def test_bad_packing_rejected(self, shape, heads):
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros(shape)), heads)


class TestLayerNorm:
    def test_constant_token_zeroed_by_eps(self):
        x = Tensor(np.full((3, 4), 2.5))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        npt.assert_allclose(out.data, np.zeros((3, 4)))

    def test_moments(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 32)) * 3 + 1)
        out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
        npt.assert_allclose(out.data.mean(axis=-1), 0, atol=1e-9)
        npt.assert_allclose(out.data.var(axis=-1), 1, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        err = grad_check(T.layer_norm,
                         [tensor(rng.standard_normal((4, 5))),
                          tensor(rng.standard_normal(5) + 1),
                          tensor(rng.standard_normal(5))], 7)
        assert err <= 1e-5, err

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_saturation_finite(self):
        out = T.sigmoid(Tensor([-800.0, 800.0]))
        assert np.isfinite(out.data).all()

    def test_sigmoid_equals_three_exp_formula(self):
        x = np.concatenate([np.random.default_rng(12).standard_normal(2000) * 30,
                            [0.0, -0.0, -800.0, 800.0, 1e-300, -1e-300]])
        old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        npt.assert_array_equal(T.sigmoid(Tensor(x)).data, old)

    def test_hadamard_column_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        col = Tensor([[2.0], [0.0]])
        npt.assert_array_equal(T.hadamard(a, col).data, [[2.0, 4.0], [0.0, 0.0]])

    def test_gelu_gradient(self):
        rng = np.random.default_rng(8)
        err = grad_check(T.gelu, [tensor(rng.standard_normal((3, 4)) * 2)], 9)
        assert err <= 1e-5, err

    def test_gelu_gradient_is_the_derivative_times_g(self):
        # Reference: g·(x·φ(x) + Φ(x)), in the operation order of the backward
        # that read x and Φ(x) from the tape. No-grad calls give the same output.
        rng = np.random.default_rng(9)
        xd, g = rng.standard_normal((2, 5, 7)) * 3
        cdf = xd * (1.0 / math.sqrt(2.0))
        T.erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        want = np.exp(xd * xd * -0.5) * (1.0 / math.sqrt(2.0 * math.pi)) * xd + cdf
        want *= g
        x = tensor(xd)
        out = T.gelu(x)
        T.backward(T.sum_all(T.hadamard(out, Tensor(g))))
        npt.assert_array_equal(x.grad, want)
        npt.assert_array_equal(out.data, xd * cdf)
        with T.no_grad():
            npt.assert_array_equal(T.gelu(x).data, out.data)

    def test_gelu_values(self):
        npt.assert_allclose(T.gelu(Tensor([0.0])).data, [0.0])
        npt.assert_allclose(T.gelu(Tensor([10.0])).data, [10.0], rtol=1e-9)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            T.hadamard(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


class TestErfImport:
    """restr takes scipy's erf ufunc without importing scipy.special, and a
    later import of scipy.special shares it."""

    def test_import_loads_no_scipy_package(self):
        out = run_with_blas_threads(
            "import sys, restr, restr.cli\n"
            "print([m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules])\n"
            "import scipy.special, restr.tensor as T\n"
            "print(scipy.special.erf is T.erf, scipy.special._special_ufuncs.erf is T.erf,\n"
            "      repr(float(scipy.special.gamma(0.5))))\n", "1")
        loaded, shared = out.splitlines()
        assert loaded == "[]"
        assert shared == f"True True {math.sqrt(math.pi)!r}"

    def test_scipy_special_imported_first(self):
        out = run_with_blas_threads(
            "import scipy.special, restr.tensor as T\nprint(scipy.special.erf is T.erf)\n", "1")
        assert out.strip() == "True"

    def test_falls_back_to_scipy_special(self, monkeypatch):
        import scipy.special
        monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs")
        monkeypatch.setattr(T.importlib.util, "find_spec", lambda name: None)
        assert T._load_erf() is scipy.special.erf


class TestLayoutOps:
    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        cat = T.concat([Tensor(a), Tensor(b)], axis=0)
        assert cat.shape == (6, 3)
        npt.assert_array_equal(T.slice_axis(cat, 0, 0, 2).data, a)
        npt.assert_array_equal(T.slice_axis(cat, 0, 2, 6).data, b)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_slice_gradient_is_zero_padded_scatter(self):
        x = tensor(np.arange(12, dtype=float).reshape(4, 3))
        out = T.sum_all(T.slice_axis(x, 0, 1, 3))
        T.backward(out)
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        npt.assert_array_equal(x.grad, expected)

    def test_reshape_transpose_gradients(self):
        rng = np.random.default_rng(12)
        err = grad_check(lambda x: T.transpose(T.reshape(x, (2, 6))),
                         [tensor(rng.standard_normal((3, 4)))], 13)
        assert err <= 1e-6, err

    def test_reshape_size_check(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_slice_bounds(self):
        with pytest.raises(ShapeError):
            T.slice_axis(Tensor(np.zeros((2, 3))), 0, 1, 4)


class TestUpsample:
    def test_bilinear_batch_is_per_grid(self):
        x = np.random.default_rng(14).standard_normal((3, 2, 4, 2))
        out = T.upsample2x_bilinear(Tensor(x)).data
        npt.assert_array_equal(out, np.stack([T.upsample2x_bilinear(Tensor(g)).data
                                              for g in x]))

    def test_bilinear_values_stay_in_hull(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, (4, 5, 2))
        out = T.upsample2x_bilinear(Tensor(x)).data
        assert out.min() >= x.min() - 1e-12 and out.max() <= x.max() + 1e-12

    def test_bilinear_gradient(self):
        rng = np.random.default_rng(16)
        err = grad_check(T.upsample2x_bilinear,
                         [tensor(rng.standard_normal((3, 4, 2)))], 17)
        assert err <= 1e-6, err

    def test_needs_grid(self):
        with pytest.raises(ShapeError):
            T.upsample2x_bilinear(Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("n", [*range(1, 34), 240])
    def test_banded_equals_dense_matrices(self, n):
        # h = n against w = 34 - n (33 at n = 240), with 0, 1 or 2 batch axes
        w = 34 - n if n < 34 else 33
        lead = [(), (2,), (2, 3)][n % 3]
        rng = np.random.default_rng(n)
        x = rng.standard_normal((*lead, n, w, 2))
        g = rng.standard_normal((*lead, 2 * n, 2 * w, 2))
        ry, rx = T._bilinear_matrix(n), T._bilinear_matrix(w)
        dense = np.einsum("ih,...hwc,jw->...ijc", ry, x, rx)
        dense_adjoint = np.einsum("ih,...ijc,jw->...hwc", ry, g, rx)

        xt = tensor(x)
        out = T.upsample2x_bilinear(xt)
        T.backward(T.sum_all(T.hadamard(out, Tensor(g))))
        assert out.shape == dense.shape and xt.grad.shape == x.shape
        assert np.abs(out.data - dense).max() <= 1e-15 * np.abs(dense).max()
        assert np.abs(xt.grad - dense_adjoint).max() <= 1e-15 * np.abs(dense_adjoint).max()

    def test_bits_do_not_depend_on_blas_threads(self):
        first = run_with_blas_threads(_UPSAMPLE, "1")
        assert len(first.split()) == 2
        assert run_with_blas_threads(_UPSAMPLE, "2") == first


def _parent_bce(x, y):
    """The loss and logit gradient of the former probability form,
    ``bce(sigmoid(x))`` with its [1e-7, 1 - 1e-7] clip, in numpy."""
    p = np.clip(1.0 / (1.0 + np.exp(-x)), 1e-7, 1.0 - 1e-7)
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / x.size
    grad = (p - y) / (p * (1.0 - p)) / x.size * p * (1.0 - p)
    return loss, grad


class TestBce:
    def test_half_prediction(self):
        out = T.bce(Tensor([[0.0]]), np.array([[1.0]]))
        npt.assert_allclose(out.item(), math.log(2), rtol=1e-12)

    def test_perfect_prediction_near_zero(self):
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = T.bce(Tensor(80.0 * target - 40.0), target)
        assert 0 <= out.item() < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(18)
        logits = tensor(rng.uniform(-4.0, 4.0, (3, 4)))
        target = rng.integers(0, 2, (3, 4)).astype(float)
        err = grad_check(lambda x: T.bce(x, target), [logits])
        assert err <= 1e-5, err

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.bce(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_confident_wrong_is_finite(self):
        x = tensor([[800.0, -800.0]])
        out = T.bce(x, np.array([[0.0, 1.0]]))
        npt.assert_allclose(out.item(), 800.0, rtol=1e-12)
        T.backward(out)
        npt.assert_array_equal(x.grad, [[0.5, -0.5]])  # +-1/n, n = 2

    def test_confident_wrong_gradient_does_not_vanish(self):
        # The probability clip gave exactly 0 here: sigmoid(+-30) lies outside
        # [1e-7, 1 - 1e-7].
        x = tensor([[30.0, -30.0]])
        T.backward(T.bce(x, np.array([[0.0, 1.0]])))
        npt.assert_allclose(x.grad, [[0.5, -0.5]], rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-8.0, 8.0), st.integers(0, 1)),
                    min_size=1, max_size=12))
    def test_equals_the_probability_form_where_the_clip_was_inactive(self, pairs):
        x = np.array([[v for v, _ in pairs]])
        y = np.array([[float(t) for _, t in pairs]])
        want_loss, want_grad = _parent_bce(x, y)
        logits = tensor(x)
        out = T.bce(logits, y)
        T.backward(out)
        assert abs(out.item() - want_loss) <= 1e-12 * abs(want_loss)
        npt.assert_allclose(logits.grad, want_grad, rtol=1e-12, atol=0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tensor(np.arange(6, dtype=float).reshape(2, 3))
        T.backward(T.sum_all(x))
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = tensor([3.0])
        T.backward(T.sum_all(T.hadamard(x, x)))
        npt.assert_allclose(x.grad, [6.0])

    def test_three_layer_composite_matches_fd(self):
        rng = np.random.default_rng(19)

        def f(x, w1, w2):
            h = T.gelu(T.matmul(x, w1))
            return T.bce(T.matmul(h, w2), np.ones((3, 1)))

        err = grad_check(f, [tensor(rng.standard_normal((3, 4))),
                             tensor(rng.standard_normal((4, 5))),
                             tensor(rng.standard_normal((5, 1)))])
        assert err <= 1e-4, err

    def test_non_scalar_loss_rejected(self):
        x = tensor(np.ones((2, 2)))
        with pytest.raises(GraphError):
            T.backward(T.hadamard(x, x))

    def test_leaf_loss_rejected(self):
        with pytest.raises(GraphError):
            T.backward(tensor([1.0]))

    def test_double_backward_rejected(self):
        x = tensor([2.0])
        loss = T.sum_all(T.hadamard(x, x))
        T.backward(loss)
        with pytest.raises(GraphError):
            T.backward(loss)

    def test_gradient_accumulates_across_reuse(self):
        x = tensor([1.5])
        loss = T.sum_all(T.add(T.hadamard(x, x), x))  # x^2 + x -> 2x + 1
        T.backward(loss)
        npt.assert_allclose(x.grad, [4.0])

    def test_no_grad_suppresses_recording(self):
        x = tensor([1.0])
        with T.no_grad():
            out = T.sum_all(x)
        assert out.op is None and not out.requires_grad

    def test_backward_memory_stays_bounded(self):
        # Each scale's output gradient is released once that scale's backward
        # has run, so the sweep holds a few leaf-sized arrays, not one per op.
        x = tensor(np.ones((128, 128)))
        y = x
        for _ in range(16):
            y = T.scale(y, 0.5)
        loss = T.sum_all(y)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / x.data.nbytes <= 4
        assert y.grad is None and loss.grad is None
        npt.assert_array_equal(x.grad, np.full((128, 128), 0.5 ** 16))

    def test_side_branch_does_not_contribute(self):
        x = tensor([1.0, 2.0])
        _side = T.hadamard(x, x)  # recorded but not part of the loss
        loss = T.sum_all(x)
        T.backward(loss)
        npt.assert_array_equal(x.grad, [1.0, 1.0])


class TestSeededBackward:
    """``backward`` from (tensor, gradient) seeds, and graphs recorded on a
    tape of their own under ``new_tape``."""

    @staticmethod
    def _graph(seed):
        rng = np.random.default_rng(seed)
        x, w = tensor(rng.standard_normal((3, 4))), tensor(rng.standard_normal((4, 5)))
        h = T.gelu(T.matmul(x, w))
        return (x, w), h, T.sigmoid(h), rng.standard_normal((2, 3, 5))

    @pytest.mark.parametrize("with_loss", [False, True], ids=["seeds", "loss+seed"])
    def test_seeds_equal_the_inner_product_loss(self, with_loss):
        # seeding (h, gh) and (s, gs) is the backward of ⟨h, gh⟩ + ⟨s, gs⟩
        leaves, h, s, (gh, gs) = self._graph(40)
        if with_loss:
            T.backward(T.sum_all(T.hadamard(s, Tensor(gs))), seeds=[(h, gh)])
        else:
            T.backward(seeds=[(h, gh), (s, gs)])
        ref_leaves, h, s, _ = self._graph(40)
        T.backward(T.sum_all(T.hadamard(h, Tensor(gh)))
                   + T.sum_all(T.hadamard(s, Tensor(gs))))
        for got, want in zip(leaves, ref_leaves):
            npt.assert_array_equal(got.grad, want.grad)

    def test_graph_split_by_a_new_tape_equals_one_graph(self):
        # the tail recorded, back-propagated and freed on its own tape, then
        # the head swept from the gradient its input received
        def tail(h, w2):
            return T.sum_all(T.sigmoid(T.matmul(h, w2)))

        w2 = tensor(np.random.default_rng(41).standard_normal((5, 2)))
        leaves, h, _, _ = self._graph(41)
        with T.new_tape():
            h_leaf = Tensor(h.data, requires_grad=True)
            T.backward(tail(h_leaf, w2))
        T.backward(seeds=[(h, h_leaf.grad)])
        split = [t.grad for t in (*leaves, w2)]
        w2.grad = None
        ref_leaves, h, _, _ = self._graph(41)
        T.backward(tail(h, w2))
        for got, want in zip(split, [t.grad for t in (*ref_leaves, w2)]):
            npt.assert_array_equal(got, want)

    def test_leaf_consumed_and_missing_seeds_rejected(self):
        x = tensor(np.ones((2, 2)))
        with pytest.raises(GraphError, match="leaf"):
            T.backward(seeds=[(x, np.ones((2, 2)))])
        y = T.hadamard(x, x)
        with pytest.raises(ShapeError):
            T.backward(seeds=[(y, np.ones((2, 1)))])
        T.backward(seeds=[(y, np.ones((2, 2)))])
        npt.assert_array_equal(x.grad, np.full((2, 2), 2.0))
        with pytest.raises(GraphError, match="consumed"):
            T.backward(seeds=[(y, np.ones((2, 2)))])
        with pytest.raises(GraphError, match="loss or a seed"):
            T.backward()

    def test_exception_in_new_tape_releases_it_and_keeps_the_outer(self):
        x = tensor([1.0, 2.0])
        outer = T.sum_all(T.hadamard(x, x))
        with pytest.raises(ZeroDivisionError):
            with T.new_tape():
                probs = T.sigmoid(x)
                ref = weakref.ref(probs.data)  # the sigmoid's backward reads it
                inner = T.sum_all(probs)
                del probs
                assert ref() is not None
                1 / 0
        assert inner.op == "sum_all" and inner._node.backward is None
        assert ref() is None
        assert outer._node.backward is not None  # still pending on the outer tape
        T.reset_graph()
        assert outer._node.backward is None


class TestTapeMemory:
    """The tape keeps only the arrays backward reads, and a consumed graph
    keeps nothing, however long the caller holds its loss."""

    @staticmethod
    def _leaves(seed):
        rng = np.random.default_rng(seed)
        return (tensor(rng.standard_normal((6, 5))), tensor(rng.standard_normal((5, 4))),
                tensor(rng.standard_normal((1, 4))))

    def test_pre_bias_output_freed_before_backward(self):
        def run(hold):
            x, w, b = self._leaves(34)
            pre = T.matmul(x, w)
            ref = weakref.ref(pre.data)
            loss = T.sum_all(T.gelu(pre + b))
            held = pre if hold else None
            del pre
            alive = ref() is not None
            T.backward(loss)
            del held  # held through the backward
            return alive, [t.grad for t in (x, w, b)]

        dropped_alive, dropped = run(hold=False)
        held_alive, held = run(hold=True)
        assert not dropped_alive and held_alive
        for got, want in zip(dropped, held):
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("release", [T.backward, lambda _: T.reset_graph()],
                             ids=["backward", "reset_graph"])
    def test_held_loss_does_not_pin_the_graph(self, release):
        x, w, b = self._leaves(35)
        w2 = tensor(np.random.default_rng(35).standard_normal((4, 3)))
        hidden = T.matmul(x, w) + b
        ref = weakref.ref(hidden.data)  # matmul reads its input for w2's gradient
        loss = T.sum_all(T.matmul(hidden, w2))
        del hidden
        assert ref() is not None
        release(loss)
        assert ref() is None and loss.op == "sum_all"

    def test_attention_does_not_pin_its_input(self):
        # backward reads copies of q, k and [v | 1], never the packed projection
        def run(hold):
            rng = np.random.default_rng(36)
            x, w, b = (tensor(rng.standard_normal(shape))
                       for shape in ((2, 5, 12), (12, 12), (1, 12)))
            qkv = T.matmul(x, w) + b  # the add allocates the array it returns
            ref = weakref.ref(qkv.data)
            loss = T.sum_all(T.attention(qkv, 2))
            held = qkv if hold else None
            del qkv
            alive = ref() is not None
            T.backward(loss)
            del held
            return alive, [x.grad, w.grad, b.grad]

        dropped_alive, dropped = run(hold=False)
        held_alive, held = run(hold=True)
        assert not dropped_alive and held_alive
        for got, want in zip(dropped, held):
            npt.assert_array_equal(got, want)

    def test_a5_forward_keeps_under_48_mb(self):
        # Batch-8 A5 forward plus loss: about 41 MB stay live with gelu keeping
        # only its derivative, 53.0 MB when it kept its input and Φ(x), 55.0 MB
        # with attention keeping a view of all of qkv rather than a copy of k,
        # 75.6 MB when every node held its input and output.
        cfg = ModelConfig(vocab_size=len(VOCABULARY), **A5)
        params = init_model(np.random.default_rng(0), cfg)
        samples = generate(5, 8, 64, 64).samples
        masks = np.stack([s.mask for s in samples])
        y_p = np.stack([patch_labels(m, cfg.patch_size, 0.8) for m in masks])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pred = forward(np.stack([s.image for s in samples]),
                           [s.token_ids for s in samples], params, cfg)
            total, _, _ = segmentation_loss(pred, y_p, masks, lam=0.1)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            T.reset_graph()
        assert kept < 48e6, f"{kept / 1e6:.1f} MB live after the forward"


class TestGradBufferPrivacy:
    """No gradient array is ever written in place, so an array that two
    slots share by reference, or that a caller holds from an earlier pass,
    keeps its values."""

    def test_add_same_tensor_twice(self):
        # The outer add hands one array to the inner add and to u; the inner
        # add hands it to x twice.
        rng = np.random.default_rng(30)
        x, u = tensor(rng.standard_normal((3, 4))), tensor(rng.standard_normal((3, 4)))
        c = rng.standard_normal((3, 4))
        T.backward(T.sum_all(T.hadamard(T.add(T.add(x, x), u), Tensor(c))))
        npt.assert_array_equal(x.grad, 2 * c)
        npt.assert_array_equal(u.grad, c)

    @pytest.mark.parametrize("slice_backward_first", [False, True])
    def test_tensor_both_sliced_and_added(self, slice_backward_first):
        # The add hands one array to x and v. Whichever of the slice and the
        # add runs its backward first, v's gradient stays as the add gave it.
        rng = np.random.default_rng(31)
        x, v = tensor(rng.standard_normal((4, 3))), tensor(rng.standard_normal((4, 3)))
        c, d = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))

        def sliced():
            return T.sum_all(T.hadamard(T.slice_axis(x, 0, 1, 3), Tensor(d)))

        def added():
            return T.sum_all(T.hadamard(T.add(x, v), Tensor(c)))

        first, second = (added, sliced) if slice_backward_first else (sliced, added)
        T.backward(T.add(first(), second()))  # first() is recorded first
        expected = c.copy()
        expected[1:3] += d
        npt.assert_array_equal(x.grad, expected)
        npt.assert_array_equal(v.grad, c)

    def test_slice_of_input_with_shared_grad(self):
        # The add hands one array to reshape(x) and to w, and the reshape
        # gives x a view of it. The slices of x, recorded first, run their
        # backward last and must not write through that view.
        rng = np.random.default_rng(32)
        x = tensor(rng.standard_normal((2, 6)))
        w = tensor(rng.standard_normal((3, 4)))
        c, d = rng.standard_normal((3, 4)), rng.standard_normal((2, 3))
        x_branch = T.add(T.sum_all(T.hadamard(T.slice_axis(x, 1, 0, 3), Tensor(d))),
                         T.sum_all(T.hadamard(T.slice_axis(x, 1, 3, 6), Tensor(d))))
        y_branch = T.sum_all(T.hadamard(T.add(T.reshape(x, (3, 4)), w), Tensor(c)))
        T.backward(T.add(x_branch, y_branch))
        npt.assert_array_equal(w.grad, c)
        npt.assert_array_equal(x.grad, c.reshape(2, 6) + np.concatenate([d, d], axis=1))

    def test_leaf_grad_from_earlier_pass_not_written(self):
        rng = np.random.default_rng(33)
        x = tensor(rng.standard_normal((4, 3)))
        c = rng.standard_normal((4, 3))

        def loss():
            return T.sum_all(T.hadamard(T.add(x, x), Tensor(c)))

        T.backward(loss())
        held = x.grad
        T.backward(loss())
        npt.assert_array_equal(held, 2 * c)
        npt.assert_array_equal(x.grad, 4 * c)


class TestEngineInvariants:
    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(77)
            x = tensor(rng.standard_normal((6, 6)))
            w = tensor(rng.standard_normal((6, 6)))
            out = T.bce(T.sigmoid(T.matmul(T.softmax(x, axis=-1), w)),
                        (rng.standard_normal((6, 6)) > 0).astype(float))
            T.backward(out)
            return out.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        npt.assert_array_equal(gx1, gx2)
        npt.assert_array_equal(gw1, gw2)

    def test_finite_inputs_finite_outputs(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((4, 4)) * 500)
        for out in (T.softmax(x, -1), T.sigmoid(x), T.gelu(x),
                    T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))):
            assert np.isfinite(out.data).all()

    def test_no_grad_in_worker_threads_does_not_leak(self):
        # Regression: grad mode is thread-local; parallel no-grad inference
        # must never disable recording on the training thread.
        from concurrent.futures import ThreadPoolExecutor

        def infer(_):
            with T.no_grad():
                return T.sum_all(Tensor(np.ones((2, 2)))).item()

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(infer, range(16)))
        x = tensor([2.0])
        T.backward(T.sum_all(T.hadamard(x, x)))
        npt.assert_allclose(x.grad, [4.0])

    def test_mac_counter_scopes_matmuls(self):
        a, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5)))
        with T.count_macs() as counter:
            T.matmul(a, b)
        assert counter.macs == 3 * 4 * 5
        with T.count_macs() as counter:
            T.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        assert counter.macs == 0

    def test_attention_maps_collect_one_array_per_call_in_scope(self):
        qkv = packed_qkv(np.random.default_rng(30), 2, 5, 2, 3, grad=False)
        T.attention(qkv, 2)
        with T.attention_maps() as maps:
            T.attention(qkv, 2)
            T.matmul(qkv, Tensor(np.ones((18, 1))))
            T.attention(T.slice_axis(qkv, -2, 0, 3), 2)
        T.attention(qkv, 2)
        assert [m.shape for m in maps] == [(2, 2, 5, 5), (2, 2, 3, 3)]
        assert T._state.maps is None

    def test_attention_maps_restore_the_outer_collector(self):
        qkv = packed_qkv(np.random.default_rng(31), 1, 4, 1, 2, grad=False)
        with T.attention_maps() as outer:
            with T.attention_maps() as inner:
                T.attention(qkv, 1)
            T.attention(qkv, 1)
            with pytest.raises(RuntimeError, match="abandoned"):
                with T.attention_maps() as failed:
                    T.attention(qkv, 1)
                    raise RuntimeError("abandoned forward")
            T.attention(qkv, 1)
        assert (len(inner), len(failed), len(outer)) == (1, 1, 2)
        assert T._state.maps is None


class TestGradCheckOracle:
    def test_linear_map_near_machine_precision(self):
        rng = np.random.default_rng(22)
        w = Tensor(rng.standard_normal((4, 3)))
        err = grad_check(lambda x: T.sum_all(T.matmul(x, w)),
                         [tensor(rng.standard_normal((2, 4)))])
        assert err < 1e-9, err

    def test_softmax_matmul_composite(self):
        rng = np.random.default_rng(23)
        err = grad_check(lambda a, b: T.softmax(T.matmul(a, b), -1),
                         [tensor(rng.standard_normal((3, 4))),
                          tensor(rng.standard_normal((4, 5)))], 24)
        assert err <= 1e-5, err

    def test_corrupted_adjoint_detected(self):
        def bad_sigmoid(x):
            y = 1.0 / (1.0 + np.exp(-x.data))

            return T._record("bad_sigmoid", (x,), y,
                             lambda g: (g * y * (1.0 - y) * 1.1,))  # deliberately 10% off

        rng = np.random.default_rng(25)
        err = grad_check(bad_sigmoid, [tensor(rng.standard_normal((3, 3)))], 26)
        assert err > 1e-2, err
