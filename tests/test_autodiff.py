import numpy as np
import pytest

from grnas import autodiff as ad
from grnas.autodiff import ShapeError, Tape, grad_check
from grnas.estimators import softmax_jacobian_vector_product


def test_add_mul_shapes_enforced():
    tape = Tape()
    a = tape.tensor(np.zeros((2, 3)))
    b = tape.tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError) as err:
        ad.add(a, b)
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
    with pytest.raises(ShapeError):
        ad.mul(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(tape.tensor(np.zeros((2, 3))), tape.tensor(np.zeros((2, 3))))


def test_relu_backward_convention():
    tape = Tape()
    x = tape.tensor(np.array([-1.0, 2.0]), requires_grad=True)
    loss = ad.sum_all(ad.relu(x))
    tape.backward(loss)
    assert np.array_equal(x.grad, [0.0, 1.0])
    # adjoint at exactly zero is zero
    tape = Tape()
    x = tape.tensor(np.array([0.0, 1.0]), requires_grad=True)
    tape.backward(ad.sum_all(ad.relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_softmax_symmetry():
    tape = Tape()
    s = ad.softmax_last(tape.tensor(np.zeros(3)))
    assert np.allclose(s.data, 1.0 / 3.0)


def test_softmax_jvp_agrees_with_closed_form():
    # reverse-mode through softmax(values/lam) w.r.t. the logits must match
    # the estimator module's closed form to near machine precision
    rng = np.random.default_rng(5)
    values = rng.normal(size=6)
    v = rng.normal(size=6)
    lam = 0.7
    tape = Tape()
    theta = tape.tensor(values, requires_grad=True)
    s = ad.softmax_last(ad.scale(theta, 1.0 / lam))
    loss = ad.sum_all(ad.mul(s, tape.constant(v)))
    tape.backward(loss)
    closed = softmax_jacobian_vector_product(v, values, lam)
    assert np.max(np.abs(theta.grad - closed)) < 1e-10


def test_matmul_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))

    def fn(tape, ta, tb):
        return ad.sum_all(ad.mul(ad.matmul(ta, tb), tape.constant(w)))

    res = grad_check(fn, [a, b], step=1e-4)
    assert res.max_rel_error < 1e-5
    assert not res.excluded


def test_linear_program_is_exact():
    rng = np.random.default_rng(9)
    w = rng.normal(size=5)

    def fn(tape, x):
        return ad.sum_all(ad.mul(x, tape.constant(w)))

    res = grad_check(fn, [rng.normal(size=5)])
    assert res.max_rel_error < 1e-8


def test_softmax_matmul_composition():
    rng = np.random.default_rng(11)

    def fn(tape, x, w):
        return ad.sum_all(ad.softmax_last(ad.matmul(x, w)))

    res = grad_check(fn, [rng.normal(size=(2, 3)), rng.normal(size=(3, 4))], step=1e-4)
    assert res.max_rel_error < 1e-4


def test_relu_kink_excluded_not_failed():
    def fn(tape, x):
        return ad.sum_all(ad.relu(x))

    res = grad_check(fn, [np.array([0.0, 1.0, -1.0])], step=1e-4)
    assert (0, 0) in res.excluded
    assert res.checked == 2
    assert res.max_rel_error < 1e-8


def test_grad_check_contract_errors():
    def vector_fn(tape, x):
        return ad.relu(x)

    with pytest.raises(ValueError):
        grad_check(vector_fn, [np.zeros(3)])
    with pytest.raises(ValueError):
        grad_check(lambda tape, x: ad.sum_all(x), [np.zeros(3)], step=0.0)


def test_batched_matmul_and_transpose():
    rng = np.random.default_rng(13)

    def fn(tape, x, y):
        scores = ad.matmul(ad.transpose(x, (0, 2, 1)), y)
        return ad.sum_all(ad.softmax_last(scores))

    res = grad_check(fn, [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))], step=1e-4)
    assert res.max_rel_error < 1e-4


def test_logistic_is_the_three_exp_formula_bit_for_bit():
    rng = np.random.default_rng(24)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        x = rng.normal(size=(4, 6, 5)) * scale
        x[0, 0, :4] = [0.0, -0.0, np.inf, -np.inf]
        for view in (x, x.transpose(0, 2, 1)):
            a = np.abs(view)
            want = np.where(view >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(-a) / (1.0 + np.exp(-a)))
            assert np.array_equal(ad.logistic(view), want), scale


def test_concat_reshape_sigmoid_pipeline():
    rng = np.random.default_rng(15)
    w = rng.normal(size=(6, 2))

    def fn(tape, x, y):
        joint = ad.concat(x, y, axis=1)  # (2, 6)
        h = ad.sigmoid(ad.matmul(joint, tape.constant(w)))
        return ad.mean_all(h)

    res = grad_check(fn, [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))], step=1e-4)
    assert res.max_rel_error < 1e-4


def test_concat_offaxis_mismatch():
    tape = Tape()
    with pytest.raises(ShapeError):
        ad.concat(tape.tensor(np.zeros((2, 3))), tape.tensor(np.zeros((3, 3))), axis=1)


def test_log_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(17)
    onehot = np.eye(2)[rng.integers(0, 2, size=4)]

    def fn(tape, logits):
        logp = ad.log_softmax_last(logits)
        return ad.scale(ad.sum_all(ad.mul(logp, tape.constant(onehot))), -1.0 / 4)

    res = grad_check(fn, [rng.normal(size=(4, 2))], step=1e-4)
    assert res.max_rel_error < 1e-5


def test_weighted_sum_gradients():
    rng = np.random.default_rng(19)

    def fn(tape, w, x0, x1, v):
        mixed = ad.weighted_sum([x0, None, x1], w, 1)  # a skipped term gets no weight gradient
        return ad.sum_all(ad.mul(mixed, ad.weighted_sum([x1, x0, None], v)))

    inputs = [rng.normal(size=s) for s in ((2, 3), (2, 2), (2, 2), 3)]
    res = grad_check(fn, inputs, step=1e-4)
    assert res.max_rel_error < 1e-6 and res.checked == 17


def _scale_and_add_chain(terms, weights, g):
    """The chain weighted_sum stands for, in numpy: each term scaled by a float
    weight, the products added in order; backward in reverse, each term's
    gradient laid out like the term.  Returns (out, grads by term id, weight grads)."""
    present = [(i, x) for i, x in enumerate(terms) if x is not None]
    out = None
    for i, x in present:
        product = x * float(weights[i])
        out = product if out is None else out + product
    grads, w_grad = {}, np.zeros(len(terms))
    for i, x in reversed(present):
        term_grad = np.zeros_like(x * float(weights[i]))
        term_grad += g
        grads[id(x)] = grads.get(id(x), np.zeros_like(x)) + term_grad * float(weights[i])
        w_grad[i] = 0.0 + np.sum(term_grad * x)
    return out, grads, w_grad


@pytest.mark.parametrize("row", [..., 0, 2])
def test_weighted_sum_is_the_scale_and_add_chain_bit_for_bit(row):
    rng = np.random.default_rng(20)
    shape = (6, 9, 7)
    c_layout = rng.normal(size=shape)
    transposed = rng.normal(size=(6, 7, 9)).transpose(0, 2, 1)  # same shape, another layout
    other = rng.normal(size=shape)
    # a skipped term, and a term thrice: its gradient sums in reverse term order
    terms = [c_layout, None, transposed, c_layout, other, c_layout]
    w_data = rng.random(6) if row is ... else rng.random((3, 6))
    upstream = rng.normal(size=shape)

    tape = Tape()
    leaves = {id(x): tape.tensor(x, requires_grad=True) for x in (c_layout, transposed, other)}
    w = tape.tensor(w_data, requires_grad=True)
    out = ad.weighted_sum([None if x is None else leaves[id(x)] for x in terms], w, row)
    tape.backward(ad.sum_all(ad.mul(out, tape.constant(upstream))))
    # the transposed term's product must be reduced in its own layout, not the gradient's
    assert out.data.strides != transposed.strides

    want_out, want_grads, want_w = _scale_and_add_chain(terms, w_data[row], upstream)
    assert np.array_equal(out.data, want_out)
    for key, leaf in leaves.items():
        assert np.array_equal(leaf.grad, want_grads[key])
    want_w_grad = np.zeros_like(w_data)
    want_w_grad[row] = want_w
    assert np.array_equal(w.grad, want_w_grad)


def test_weighted_sum_checks_shapes():
    tape = Tape()
    x = tape.tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ad.weighted_sum([x, x], tape.tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        ad.weighted_sum([x, tape.tensor(np.zeros((3, 2)))], tape.tensor(np.ones((1, 2))), 0)


def test_accumulate_first_write_keeps_the_data_layout():
    tape = Tape()
    t = tape.tensor(np.zeros((3, 4)), requires_grad=True)
    g = np.arange(12.0).reshape(4, 3).T  # a transposed view
    ad.accumulate(t, g)
    assert t.grad.strides == t.data.strides and np.array_equal(t.grad, g)
    ad.accumulate(t, g)
    assert np.array_equal(t.grad, 2.0 * g)
    z = tape.tensor(np.zeros(1), requires_grad=True)
    ad.accumulate(z, np.array([-0.0]))  # as 0 + g: a negative zero is stored as +0
    assert not np.signbit(z.grad[0])


def test_mean_axis_sum_axis():
    rng = np.random.default_rng(21)

    def fn(tape, x):
        pooled = ad.mean_axis(x, 2)  # (N, C)
        return ad.sum_all(ad.mul(pooled, pooled))

    res = grad_check(fn, [rng.normal(size=(2, 3, 4))], step=1e-4)
    assert res.max_rel_error < 1e-5


def test_tape_replay_deterministic():
    rng = np.random.default_rng(23)
    x0 = rng.normal(size=(3, 3))
    w0 = rng.normal(size=(3, 3))
    grads = []
    for _ in range(2):
        tape = Tape()
        x = tape.tensor(x0, requires_grad=True)
        w = tape.tensor(w0, requires_grad=True)
        loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
        tape.backward(loss)
        grads.append((x.grad.copy(), w.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_backward_requires_scalar_and_same_tape():
    tape = Tape()
    x = tape.tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        tape.backward(x)
    other = Tape()
    y = other.tensor(np.zeros(1), requires_grad=True)
    with pytest.raises(ValueError):
        tape.backward(y)
    loss = ad.sum_all(ad.mul(y, y))
    other.backward(loss)
    with pytest.raises(ValueError, match="replays once"):
        other.backward(loss)


def test_gradient_accumulates_over_reuse():
    tape = Tape()
    x = tape.tensor(np.array([2.0]), requires_grad=True)
    loss = ad.sum_all(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    tape.backward(loss)
    assert np.allclose(x.grad, [5.0])
