"""The Monte Carlo kernels against the log-space posterior formula, their
draw order on the shared Generator stream, and their exact invariants."""

import warnings

import numpy as np
import pytest

from grnas import gumbel, kernels
from grnas.gumbel import conditional_gumbel_sample, log_partition

EPS = kernels.UNIFORM_EPS
THETAS = (
    np.array([0.3, 1.2, -0.5]),
    np.linspace(-0.5, 0.5, 5),
    np.array([4.0, -3.0, 0.0, 1.5, -0.2]),
)


# ---------------------------------------------------------------------------
# reference: the log-space form, -logaddexp(log E_j - theta_j, log E_i - log Z)


def reference_rows(theta, index, u):
    """Posterior rows from a uniform block ``u`` (..., N); ``index`` broadcasts to u[..., 0]."""
    log_e = np.log(-np.log(np.clip(u, EPS, 1.0 - EPS)))
    log_z = log_partition(theta)
    at = np.broadcast_to(np.asarray(index)[..., None], u.shape[:-1] + (1,))
    log_ei = np.take_along_axis(log_e, at, axis=-1)
    with np.errstate(invalid="ignore"):
        vals = -np.logaddexp(log_e - theta, log_ei - log_z)
    np.put_along_axis(vals, at, log_z - log_ei, axis=-1)
    return vals


def reference_grmc_stats(theta, d_idx, g_table, g_star, lam, k, rng):
    """Max-subtracted tempered softmax and the broadcast pairwise JVP, one block."""
    u = rng.random((d_idx.shape[0], k, theta.shape[0]))
    z = reference_rows(theta, d_idx[:, None], u) / lam
    s = np.exp(z - z.max(axis=-1, keepdims=True))
    s /= s.sum(axis=-1, keepdims=True)
    w = g_table[d_idx][:, None, :]
    dw = w[..., :, None] - w[..., None, :]
    jvp = (s * np.einsum("...m,...jm->...j", s, dw)).mean(axis=1) / lam
    se = ((jvp - g_star) ** 2).sum(axis=1)
    return jvp.sum(axis=0), (jvp * jvp).sum(axis=0), se.sum(), (se * se).sum()


def assert_close(actual, expected):
    # rtol on each entry; atol scaled to the array, for entries that cancel towards 0
    expected = np.asarray(expected)
    scale = np.max(np.abs(expected)) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


def grmc_inputs(n, trials, seed=19):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=trials), rng.normal(size=(n, n)), rng.normal(size=n)


# ---------------------------------------------------------------------------
# direct form == log-space form on the same uniforms


@pytest.mark.parametrize("theta", THETAS)
def test_conditional_values_match_log_space_reference(theta):
    for index in range(theta.size):
        for k in (1, 13, 1000):
            got = kernels.conditional_values(theta, index, k, np.random.default_rng(index + k))
            u = np.random.default_rng(index + k).random((k, theta.size))
            assert_close(got, reference_rows(theta, index, u))


@pytest.mark.parametrize("theta", THETAS)
def test_pooled_conditional_matches_log_space_reference(theta):
    vals, idx = kernels.pooled_conditional(theta, 5000, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    ref_idx = kernels.gumbel_max_indices(theta, 5000, rng)
    assert np.array_equal(idx, ref_idx)
    assert_close(vals, reference_rows(theta, ref_idx, rng.random((5000, theta.size))))


@pytest.mark.parametrize("lam", (0.1, 0.5, 1.0))
@pytest.mark.parametrize("k", (1, 13, 1000))
def test_grmc_stats_match_log_space_reference(lam, k):
    theta = THETAS[1]
    # more than one chunk, the last one partial: chunking must not change the stream
    trials = 2 * kernels._CHUNK_TRIALS + 37 if k < 1000 else kernels._CHUNK_TRIALS + 3
    d_idx, g_table, g_star = grmc_inputs(theta.size, trials)
    got = kernels.grmc_stats(theta, d_idx, g_table, g_star, lam, k, np.random.default_rng(23))
    ref = reference_grmc_stats(theta, d_idx, g_table, g_star, lam, k, np.random.default_rng(23))
    for a, b in zip(got, ref):
        assert_close(a, b)


def test_exponentials_hook_is_the_kernel_formula():
    theta = THETAS[2]
    for index in range(theta.size):
        row = kernels.conditional_values(theta, index, 1, np.random.default_rng(index))[0]
        u = np.random.default_rng(index).random(theta.size)
        e = -np.log(np.clip(u, EPS, 1.0 - EPS))
        hooked = conditional_gumbel_sample(theta, index, None, exponentials=e)
        assert np.array_equal(hooked.values, row)
        assert hooked.argmax_index == index
        assert np.array_equal(e, -np.log(np.clip(u, EPS, 1.0 - EPS)))  # caller's array untouched


def test_gumbel_max_indices_are_the_double_log_argmax():
    theta = THETAS[2]
    u = np.random.default_rng(3).random((4000, theta.size))
    expected = np.argmax(theta - np.log(-np.log(np.clip(u, EPS, 1.0 - EPS))), axis=1)
    assert np.array_equal(kernels.gumbel_max_indices(theta, 4000, np.random.default_rng(3)), expected)


# ---------------------------------------------------------------------------
# draw order: each call consumes exactly the documented uniform blocks


def test_draw_order_matches_a_twin_drawing_the_same_blocks():
    theta = THETAS[1]
    n = theta.size
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    trials = 2 * kernels._CHUNK_TRIALS + 5
    d_idx, g_table, g_star = grmc_inputs(n, trials)

    def same_state():
        return rng.bit_generator.state == twin.bit_generator.state

    kernels.gumbel_max_indices(theta, 17, rng)
    twin.random((17, n))
    assert same_state()
    kernels.conditional_values(theta, 3, 11, rng)
    twin.random((11, n))
    assert same_state()
    kernels.pooled_conditional(theta, 9, rng)
    twin.random((9, n))
    twin.random((9, n))
    assert same_state()
    kernels.grmc_stats(theta, d_idx, g_table, g_star, 0.5, 4, rng)
    for start in range(0, trials, kernels._CHUNK_TRIALS):
        twin.random((min(kernels._CHUNK_TRIALS, trials - start), 4, n))
    assert same_state()


def test_runs_are_bitwise_reproducible():
    theta = THETAS[1]
    d_idx, g_table, g_star = grmc_inputs(theta.size, 300)

    def run(seed):
        rng = np.random.default_rng(seed)
        return (
            kernels.gumbel_max_indices(theta, 64, rng),
            kernels.conditional_values(theta, 2, 64, rng),
            *kernels.pooled_conditional(theta, 64, rng),
            *kernels.grmc_stats(theta, d_idx, g_table, g_star, 0.3, 13, rng),
        )

    for a, b in zip(run(29), run(29)):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# exact invariants


def test_constant_g_rows_give_exactly_zero_sums():
    theta = THETAS[1]
    n = theta.size
    d_idx = np.random.default_rng(5).integers(0, n, size=600)
    g_table = np.repeat(np.array([[0.3], [-1.7], [2.5], [1e6], [-0.1]]), n, axis=1)
    for lam in (0.1, 0.5, 1.0):
        sum_g, sum_gsq, sum_se, sum_se2 = kernels.grmc_stats(
            theta, d_idx, g_table, np.zeros(n), lam, 13, np.random.default_rng(9)
        )
        assert np.all(sum_g == 0.0) and np.all(sum_gsq == 0.0)
        assert sum_se == 0.0 and sum_se2 == 0.0


def test_neg_inf_logits_are_never_drawn():
    theta = np.array([0.0, -np.inf, 1.0, -np.inf])
    rng = np.random.default_rng(2)
    assert not np.any(np.isin(kernels.gumbel_max_indices(theta, 5000, rng), (1, 3)))
    vals, idx = kernels.pooled_conditional(theta, 5000, rng)
    assert not np.any(np.isin(idx, (1, 3)))
    assert np.all(np.isneginf(vals[:, [1, 3]]))
    assert np.all(np.isfinite(vals[:, [0, 2]]))
    vals = kernels.conditional_values(theta, 0, 500, rng)
    assert np.all(np.isneginf(vals[:, [1, 3]])) and np.all(np.argmax(vals, axis=1) == 0)
    sums = kernels.grmc_stats(
        theta, np.array([0, 2, 2, 0]), np.eye(4), np.zeros(4), 0.5, 50, rng
    )
    assert all(np.all(np.isfinite(x)) for x in sums)


def test_logsumexp_of_a_matrix_is_logsumexp_of_each_row_bit_for_bit():
    rng = np.random.default_rng(40)
    for _ in range(2000):
        rows, n = rng.integers(1, 10), rng.integers(2, 8)
        theta = rng.normal(size=(rows, n)) * rng.choice([1e-3, 1.0, 30.0, 700.0])
        theta[rng.random(theta.shape) < 0.05] = -np.inf  # never a whole row: its max is finite
        theta[np.arange(rows), rng.integers(0, n, rows)] = rng.normal(size=rows)
        want = np.array([kernels.logsumexp(row) for row in theta])
        assert np.array_equal(kernels.logsumexp(theta), want), theta


def test_logsumexp_of_an_all_neg_inf_row_is_neg_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.logsumexp(np.full(3, -np.inf)) == -np.inf
        got = kernels.logsumexp(np.array([[-np.inf, -np.inf], [0.0, 0.0]]))
    assert np.array_equal(got, [-np.inf, kernels.logsumexp(np.zeros(2))])


def _rows_with_special_entries(rng, shape):
    """Normal entries with ±0, ±inf and NaN mixed in, and some rows all -inf or all zeros."""
    z = rng.normal(size=shape)
    special = np.array([0.0, -0.0, -np.inf, np.inf, np.nan])
    mask = rng.random(shape) < rng.choice([0.0, 0.2, 0.8])
    z[mask] = rng.choice(special, size=int(mask.sum()))
    rows = z.reshape(-1, shape[-1])
    for fill in (-np.inf, 0.0, -0.0):
        rows[rng.random(rows.shape[0]) < 0.1] = fill
    return z


def _mixed_zero_tie(z):
    """Rows whose maximum is a tie of zeros of both signs."""
    m = np.max(z, axis=-1, keepdims=True)
    zeros = (z == 0.0) & (m == 0.0)
    return np.any(zeros & np.signbit(z), axis=-1) & np.any(zeros & ~np.signbit(z), axis=-1)


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (9,), (1, 1), (40, 1), (16, 2), (17, 2), (64, 2), (8, 8, 8), (64, 8, 8), (30, 9), (5, 7, 17)]
)
def test_row_max_is_np_max_bit_for_bit(shape):
    rng = np.random.default_rng([len(shape), *shape])
    for _ in range(300):
        z = _rows_with_special_entries(rng, shape)
        got, want = kernels.row_max(z), np.max(z, axis=-1, keepdims=True)
        assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True), z
        # a tie of +0 and -0 may keep either zero: where the signs can differ
        same_sign = ~_mixed_zero_tie(z)[..., None]
        assert np.array_equal(np.signbit(got)[same_sign], np.signbit(want)[same_sign]), z


@pytest.mark.parametrize("shape", [(2,), (16, 2), (64, 2), (24, 8, 8), (30, 9)])
def test_softmaxes_and_logsumexp_read_no_sign_of_a_zero_maximum(shape):
    """Bit for bit the formulas over np.max, on rows with ±0 ties at the maximum."""
    rng = np.random.default_rng([7, *shape])
    for _ in range(300):
        z = rng.choice(np.array([0.0, -0.0, -1.5, -np.inf]), size=shape)
        with np.errstate(invalid="ignore"):  # all -inf rows
            shifted = z - np.max(z, axis=-1, keepdims=True)
            e = np.exp(shifted)
            want_soft = e / e.sum(axis=-1, keepdims=True)
            want_log = shifted - np.log(e.sum(axis=-1, keepdims=True))
            got_soft, got_log = gumbel.softmax(z), gumbel.log_softmax(z)
            lse = kernels.logsumexp(z)
        for got, want in ((got_soft, want_soft), (got_log, want_log)):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        rows = z.reshape(-1, shape[-1])
        want_lse = [kernels.logsumexp(row.tolist()) for row in rows]
        assert np.array_equal(np.ravel(lse), want_lse, equal_nan=True)
