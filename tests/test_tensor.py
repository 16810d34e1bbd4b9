"""Tensor engine: forward semantics, autodiff, stability, error contracts."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import restr.tensor as T
from restr.tensor import GraphError, ShapeError, Tensor
from restr.gradcheck import grad_check, scalarized


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
        rep = grad_check(scalarized(T.matmul, 42),
                         [tensor(rng.standard_normal((5, 7))),
                          tensor(rng.standard_normal((7, 3)))],
                         eps=1e-5, tol=1e-6)
        assert rep.passed, rep

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
        rep = grad_check(scalarized(T.layer_norm, 7),
                         [tensor(rng.standard_normal((4, 5))),
                          tensor(rng.standard_normal(5) + 1),
                          tensor(rng.standard_normal(5))],
                         tol=1e-5)
        assert rep.passed, rep

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

    def test_hadamard_column_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        col = Tensor([[2.0], [0.0]])
        npt.assert_array_equal(T.hadamard(a, col).data, [[2.0, 4.0], [0.0, 0.0]])

    def test_gelu_gradient(self):
        rng = np.random.default_rng(8)
        rep = grad_check(scalarized(T.gelu, 9),
                         [tensor(rng.standard_normal((3, 4)) * 2)], tol=1e-5)
        assert rep.passed, rep

    def test_gelu_values(self):
        npt.assert_allclose(T.gelu(Tensor([0.0])).data, [0.0])
        npt.assert_allclose(T.gelu(Tensor([10.0])).data, [10.0], rtol=1e-9)

    def test_relu(self):
        npt.assert_array_equal(T.relu(Tensor([-2.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0])

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            T.hadamard(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


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
        rep = grad_check(scalarized(lambda x: T.transpose(T.reshape(x, (2, 6))), 13),
                         [tensor(rng.standard_normal((3, 4)))], tol=1e-6)
        assert rep.passed, rep

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
        rep = grad_check(scalarized(T.upsample2x_bilinear, 17),
                         [tensor(rng.standard_normal((3, 4, 2)))], tol=1e-6)
        assert rep.passed, rep

    def test_needs_grid(self):
        with pytest.raises(ShapeError):
            T.upsample2x_bilinear(Tensor(np.zeros((2, 2))))


class TestBce:
    def test_half_prediction(self):
        out = T.bce(Tensor([[0.5]]), Tensor([[1.0]]))
        npt.assert_allclose(out.item(), math.log(2), rtol=1e-12)

    def test_perfect_prediction_clamp_floor(self):
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = T.bce(Tensor(target), Tensor(target))
        assert 0 <= out.item() < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(18)
        pred = tensor(rng.uniform(0.05, 0.95, (3, 4)))
        target = Tensor(rng.integers(0, 2, (3, 4)).astype(float))
        rep = grad_check(lambda p: T.bce(p, target), [pred], tol=1e-5)
        assert rep.passed, rep

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.bce(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_confident_wrong_is_finite(self):
        out = T.bce(Tensor([[1.0]]), Tensor([[0.0]]))
        assert np.isfinite(out.item())


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
            return T.bce(T.sigmoid(T.matmul(h, w2)),
                         Tensor(np.ones((3, 1))))

        rep = grad_check(f, [tensor(rng.standard_normal((3, 4))),
                             tensor(rng.standard_normal((4, 5))),
                             tensor(rng.standard_normal((5, 1)))],
                         eps=1e-5, tol=1e-4)
        assert rep.passed, rep

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

    def test_side_branch_does_not_contribute(self):
        x = tensor([1.0, 2.0])
        _side = T.hadamard(x, x)  # recorded but not part of the loss
        loss = T.sum_all(x)
        T.backward(loss)
        npt.assert_array_equal(x.grad, [1.0, 1.0])


class TestEngineInvariants:
    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(77)
            x = tensor(rng.standard_normal((6, 6)))
            w = tensor(rng.standard_normal((6, 6)))
            out = T.bce(T.sigmoid(T.matmul(T.softmax(x, axis=-1), w)),
                        Tensor((rng.standard_normal((6, 6)) > 0).astype(float)))
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
        for out in (T.softmax(x, -1), T.sigmoid(x), T.gelu(x), T.relu(x),
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


class TestGradCheckOracle:
    def test_linear_map_near_machine_precision(self):
        rng = np.random.default_rng(22)
        w = Tensor(rng.standard_normal((4, 3)))
        rep = grad_check(lambda x: T.sum_all(T.matmul(x, w)),
                         [tensor(rng.standard_normal((2, 4)))], tol=1e-9)
        assert rep.passed and rep.max_rel_err < 1e-9

    def test_softmax_matmul_composite(self):
        rng = np.random.default_rng(23)
        rep = grad_check(scalarized(lambda a, b: T.softmax(T.matmul(a, b), -1), 24),
                         [tensor(rng.standard_normal((3, 4))),
                          tensor(rng.standard_normal((4, 5)))], tol=1e-5)
        assert rep.passed, rep

    def test_corrupted_adjoint_detected(self):
        def bad_sigmoid(x):
            y = 1.0 / (1.0 + np.exp(-x.data))

            def bwd(g):
                T._accum(x, g * y * (1.0 - y) * 1.1)  # deliberately 10% off

            return T._record("bad_sigmoid", (x,), y, bwd)

        rng = np.random.default_rng(25)
        rep = grad_check(scalarized(bad_sigmoid, 26),
                         [tensor(rng.standard_normal((3, 3)))], tol=1e-4)
        assert not rep.passed
        assert rep.max_rel_err > 1e-2
