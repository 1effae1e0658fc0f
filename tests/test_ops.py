import math

import numpy as np
import pytest

from grnas import autodiff as ad
from grnas import ops
from grnas.autodiff import ShapeError, Tape, grad_check


def rand_pair(rng, shape=(2, 3, 4)):
    return rng.normal(size=shape), rng.normal(size=shape)


class TestIdentityZeroSum:
    def test_identity_passthrough_and_gradient(self):
        tape = Tape()
        x = tape.tensor(np.arange(6.0).reshape(1, 2, 3), requires_grad=True)
        out = ops.op_identity(tape, x)
        assert out is x
        tape.backward(ad.sum_all(out))
        assert np.array_equal(x.grad, np.ones((1, 2, 3)))

    def test_identity_grad_check(self):
        rng = np.random.default_rng(0)
        res = grad_check(lambda t, x: ad.sum_all(ops.op_identity(t, x)), [rng.normal(size=(2, 2, 2))])
        assert res.max_rel_error < 1e-8

    def test_zero_output_and_gradients(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        x = tape.tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = tape.tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = ops.op_zero(tape, x, y)
        assert np.array_equal(out.data, np.zeros((2, 3, 4)))
        tape.backward(ad.sum_all(out))
        assert np.array_equal(x.grad, np.zeros((2, 3, 4)))
        assert y.grad is None  # never touched: exactly zero contribution

    def test_zero_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ops.op_zero(tape, tape.tensor(np.zeros((1, 2, 3))), tape.tensor(np.zeros((1, 2, 4))))

    def test_sum_identities(self):
        rng = np.random.default_rng(2)
        xa, ya = rand_pair(rng)
        tape = Tape()
        x, y = tape.tensor(xa), tape.tensor(ya)
        assert np.array_equal(ops.op_sum(tape, x, tape.tensor(np.zeros_like(xa))).data, xa)
        assert np.array_equal(
            ops.op_sum(tape, x, y).data, ops.op_sum(tape, y, x).data
        )

    def test_sum_gradient_passthrough(self):
        rng = np.random.default_rng(3)
        xa, ya = rand_pair(rng)
        tape = Tape()
        x = tape.tensor(xa, requires_grad=True)
        y = tape.tensor(ya, requires_grad=True)
        upstream = rng.normal(size=xa.shape)
        tape.backward(ad.sum_all(ad.mul(ops.op_sum(tape, x, y), tape.constant(upstream))))
        assert np.array_equal(x.grad, upstream)
        assert np.array_equal(y.grad, upstream)


class TestAttention:
    def test_single_key_returns_values(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 1))
        y = rng.normal(size=(2, 3, 1))
        tape = Tape()
        out = ops.op_attention(tape, tape.tensor(x), tape.tensor(y))
        assert np.allclose(out.data, y, atol=1e-14)

    def test_identical_value_positions(self):
        # all key/value positions equal -> any convex combination is that vector
        rng = np.random.default_rng(5)
        col = rng.normal(size=(2, 3, 1))
        y = np.repeat(col, 4, axis=2)
        x = rng.normal(size=(2, 3, 4))
        tape = Tape()
        out = ops.op_attention(tape, tape.tensor(x), tape.tensor(y))
        assert np.allclose(out.data, y, atol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(6)
        xa, ya = rand_pair(rng)
        res = grad_check(
            lambda t, x, y: ad.sum_all(ops.op_attention(t, x, y)), [xa, ya], step=1e-4
        )
        assert res.max_rel_error < 1e-4

    def test_channel_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ops.op_attention(tape, tape.tensor(np.zeros((1, 2, 3))), tape.tensor(np.zeros((1, 4, 3))))

    def test_output_is_convex_combination_over_keys(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 5))
        y = rng.normal(size=(1, 2, 5))
        tape = Tape()
        out = ops.op_attention(tape, tape.tensor(x), tape.tensor(y)).data
        assert out.min() >= y.min() - 1e-12
        assert out.max() <= y.max() + 1e-12


class TestLinearGLU:
    def test_zero_gate_weight_halves_linear_path(self):
        rng = np.random.default_rng(8)
        xa, ya = rand_pair(rng, (2, 3, 4))
        w1 = rng.normal(size=(3, 3))
        tape = Tape()
        out = ops.op_linear_glu(
            tape, tape.tensor(xa), tape.tensor(ya), tape.tensor(w1), tape.tensor(np.zeros((3, 3)))
        )
        expect = 0.5 * np.einsum("io,nil->nol", w1, xa)
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_identity_w1_zero_w2(self):
        rng = np.random.default_rng(9)
        xa, ya = rand_pair(rng, (2, 3, 4))
        tape = Tape()
        out = ops.op_linear_glu(
            tape, tape.tensor(xa), tape.tensor(ya), tape.tensor(np.eye(3)), tape.tensor(np.zeros((3, 3)))
        )
        assert np.allclose(out.data, 0.5 * xa, atol=1e-14)

    def test_grad_check(self):
        rng = np.random.default_rng(10)
        xa, ya = rand_pair(rng, (2, 3, 4))
        res = grad_check(
            lambda t, x, y, w1, w2: ad.sum_all(ops.op_linear_glu(t, x, y, w1, w2)),
            [xa, ya, rng.normal(size=(3, 3)), rng.normal(size=(3, 3))],
            step=1e-4,
        )
        assert res.max_rel_error < 1e-4


class TestConcatFC:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(11)
        xa, ya = rand_pair(rng, (2, 3, 4))
        tape = Tape()
        out = ops.op_concat_fc(
            tape, tape.tensor(xa), tape.tensor(ya), tape.tensor(np.zeros((6, 3))), tape.tensor(np.zeros(3))
        )
        assert np.array_equal(out.data, np.zeros((2, 3, 4)))

    def test_large_negative_bias_clips_everything(self):
        rng = np.random.default_rng(12)
        xa, ya = rand_pair(rng, (2, 3, 4))
        tape = Tape()
        out = ops.op_concat_fc(
            tape,
            tape.tensor(xa),
            tape.tensor(ya),
            tape.tensor(rng.normal(size=(6, 3))),
            tape.tensor(np.full(3, -100.0)),
        )
        assert np.array_equal(out.data, np.zeros((2, 3, 4)))

    def test_grad_check_away_from_kinks(self):
        rng = np.random.default_rng(13)
        xa, ya = rand_pair(rng, (2, 3, 4))
        res = grad_check(
            lambda t, x, y, w, b: ad.sum_all(ops.op_concat_fc(t, x, y, w, b)),
            [xa, ya, rng.normal(size=(6, 3)), rng.normal(size=3)],
            step=1e-4,
        )
        assert res.max_rel_error < 1e-4

    def test_bias_actually_applied(self):
        xa = np.zeros((1, 2, 2))
        tape = Tape()
        out = ops.op_concat_fc(
            tape, tape.tensor(xa), tape.tensor(xa), tape.tensor(np.zeros((4, 2))), tape.tensor(np.array([1.5, -2.0]))
        )
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], 0.0)  # ReLU clips the negative bias


class TestDescriptors:
    def test_shape_contract_all_second_level(self):
        rng = np.random.default_rng(14)
        xa, ya = rand_pair(rng, (2, 3, 4))
        for name in ops.SECOND_LEVEL_OPS:
            inst = ops.OpInstance(ops.descriptor(name, 3), np.random.default_rng(0))
            tape = Tape()
            out = inst.forward(tape, tape.tensor(xa), tape.tensor(ya), [tape.tensor(w) for w in inst.weights])
            assert out.shape == (2, 3, 4), name

    def test_weight_shapes_and_counts(self):
        d = ops.descriptor("linear_glu", 8)
        assert d.weight_shapes == ((8, 8), (8, 8))
        assert d.param_count == 128
        d = ops.descriptor("concat_fc", 8)
        assert d.weight_shapes == ((16, 8), (8,))
        assert d.param_count == 136
        for name in ("zero", "sum", "attention"):
            assert ops.descriptor(name, 8).param_count == 0

    def test_first_level_descriptors_weight_free_unary(self):
        for name in ops.FIRST_LEVEL_OPS:
            d = ops.descriptor(name, 8, level="first")
            assert d.arity == 1
            assert d.weight_shapes == ()
        with pytest.raises(ValueError):
            ops.descriptor("sum", 8, level="first")
        with pytest.raises(ValueError):
            ops.descriptor("identity", 8, level="second")

    def test_init_is_seeded_and_bounded(self):
        a = ops.OpInstance(ops.descriptor("linear_glu", 5), np.random.default_rng(42))
        b = ops.OpInstance(ops.descriptor("linear_glu", 5), np.random.default_rng(42))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
            assert np.max(np.abs(wa)) <= 1.0 / math.sqrt(5)
