"""The contiguous-pass kernels against the broadcast-pass form they replaced.

``grmc_stats`` runs its posterior passes on sub-blocks that fit in L2, on
-E = log(u) instead of E, with E_i and the row sums spread to the block's
shape.  Every output of the kernels built on ``_posterior_q`` and
``tempered_softmax`` must equal, bit for bit, that of the earlier form
written out below, which drew one (chunk, K, N) block per 256 trials and
broadcast E_i, 1/p and the row sums along the last axis.
"""

import numpy as np
import pytest

from grnas import estimators, kernels
from grnas.kernels import UNIFORM_EPS, _gumbel_argmax, averaged_jvp, logsumexp

CHUNK_TRIALS = 256
LAMS = (0.1, 0.37, 0.5, 1.0, 2.0)
KS = (1, 4, 13, 100, 1000)
TRIALS = (2, 37, 256, 300, 513)


# ---------------------------------------------------------------------------
# reference: the broadcast-pass kernels


def ref_exponentials(u):
    np.maximum(u, UNIFORM_EPS, out=u)  # np.clip, at half its call cost
    np.minimum(u, 1.0 - UNIFORM_EPS, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def ref_posterior_q(theta, log_z, e, at):
    e_i = e[at].copy()  # a view of e when ``at`` is a basic index
    np.multiply(e, np.exp(log_z - theta), out=e)  # E_j / p_j; +inf where p_j == 0
    e += e_i[..., None]
    e[at] = e_i
    return e, e_i


def ref_tempered_softmax(q, q_i, lam):
    q /= q_i[..., None]
    q **= -1.0 / lam
    q /= (q @ np.ones(q.shape[-1]))[..., None]  # row sums by matmul: far faster than sum(axis=-1)
    return q


def ref_posterior_values(theta, e, at):
    log_z = logsumexp(theta)
    q, _ = ref_posterior_q(theta, log_z, e, at)
    np.log(q, out=q)
    return np.subtract(log_z, q, out=q)


def ref_gumbel_max_indices(theta, n, rng):
    return _gumbel_argmax(theta, ref_exponentials(rng.random((n, theta.shape[0])))).astype(np.int64)


def ref_conditional_values(theta, index, k, rng):
    return ref_posterior_values(theta, ref_exponentials(rng.random((k, theta.shape[0]))), (..., index))


def ref_posterior_softmax(theta, index, k, lam, rng):
    e = ref_exponentials(rng.random((k, theta.shape[0])))
    return ref_tempered_softmax(*ref_posterior_q(theta, logsumexp(theta), e, (..., index)), lam)


def ref_mixture_softmax(theta, u, lam):
    e = ref_exponentials(u)
    idx = _gumbel_argmax(theta, e[:, 0])
    log_z = logsumexp(theta)
    at = (np.arange(theta.shape[0]), slice(None), idx)
    post = np.ascontiguousarray(e[:, 1:])  # the in-place passes below are faster on a contiguous block
    return ref_tempered_softmax(*ref_posterior_q(theta[:, None], log_z[:, None, None], post, at), lam), idx


def ref_grmc_gradient(obj, theta, config, rng):
    """One GRMC-K estimate as separate draws: a (1, N) Gumbel-max block, then
    a (K, N) posterior block given its outcome."""
    index = int(ref_gumbel_max_indices(theta, 1, rng)[0])
    s = ref_posterior_softmax(theta, index, config.k_samples, config.lam, rng)
    d = np.eye(theta.shape[0])[index]
    v = obj.grad(d)
    return averaged_jvp(s, v[:, None] - v[None, :], config.lam), d, index, obj.value(d)


def ref_pooled_conditional(theta, n, rng):
    idx = ref_gumbel_max_indices(theta, n, rng)
    e = ref_exponentials(rng.random((n, theta.shape[0])))
    return ref_posterior_values(theta, e, (np.arange(n), idx)), idx


def ref_grmc_stats(theta, d_idx, g_table, g_star, lam, k, rng):
    n_cat = theta.shape[0]
    trials = d_idx.shape[0]
    log_z = logsumexp(theta)
    diff = g_table[:, :, None] - g_table[:, None, :]  # (outcome i, j, m)
    block = np.empty((min(trials, CHUNK_TRIALS), k, n_cat))
    sum_g = np.zeros(n_cat)
    sum_gsq = np.zeros(n_cat)
    sum_se = 0.0
    sum_se2 = 0.0
    for start in range(0, trials, CHUNK_TRIALS):
        idx = d_idx[start : start + CHUNK_TRIALS]
        b = idx.shape[0]
        e = ref_exponentials(rng.random(out=block[:b]))
        s = ref_tempered_softmax(*ref_posterior_q(theta, log_z, e, (np.arange(b), slice(None), idx)), lam)
        jvp = averaged_jvp(s, diff[idx], lam)
        sum_g += jvp.sum(axis=0)
        sum_gsq += (jvp * jvp).sum(axis=0)
        err = jvp - g_star[None, :]
        se = (err * err).sum(axis=1)
        sum_se += se.sum()
        sum_se2 += (se * se).sum()
    return sum_g, sum_gsq, sum_se, sum_se2


# ---------------------------------------------------------------------------
# inputs


def logits(n, seed):
    """Logits with two -inf entries from N = 5 on; never the whole vector."""
    theta = np.random.default_rng(seed).normal(size=n) * 2.0
    if n >= 5:
        theta[[1, n - 2]] = -np.inf
    return theta


def outcomes(theta, trials, seed):
    return np.random.default_rng(seed).choice(np.flatnonzero(np.isfinite(theta)), size=trials)


def assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def assert_same_call(fn, ref, *args, seed=0):
    """``fn`` and ``ref`` give equal outputs and leave equal Generator states."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = fn(*args, rng), ref(*args, twin)
    assert_same(got if isinstance(got, tuple) else (got,), want if isinstance(want, tuple) else (want,))
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# bit for bit


@pytest.mark.parametrize("n", (2, 5, 9, 20))
@pytest.mark.parametrize("k", KS)
def test_grmc_stats_is_the_broadcast_form_bit_for_bit(n, k):
    theta = logits(n, n)
    g_table = np.random.default_rng(k).normal(size=(n, n))
    g_star = np.random.default_rng(k + 1).normal(size=n)
    for lam in LAMS:
        # whole and partial chunks; at K >= 100, whole and partial sub-blocks
        for trials in TRIALS if k * n <= 5000 else TRIALS[:4]:
            d_idx = outcomes(theta, trials, trials)
            assert_same_call(kernels.grmc_stats, ref_grmc_stats, theta, d_idx, g_table, g_star, lam, k, seed=trials)


@pytest.mark.parametrize("n", (2, 5, 9))
def test_constant_g_rows_give_the_same_exact_zeros(n):
    theta = logits(n, 3)
    g_table = np.repeat(np.random.default_rng(4).normal(size=(n, 1)) * 100.0, n, axis=1)
    for lam in LAMS:
        for k in (1, 13, 1000):
            d_idx = outcomes(theta, 300, k)
            sums = kernels.grmc_stats(theta, d_idx, g_table, np.zeros(n), lam, k, np.random.default_rng(k))
            assert_same(sums, ref_grmc_stats(theta, d_idx, g_table, np.zeros(n), lam, k, np.random.default_rng(k)))
            assert all(np.all(x == 0.0) for x in sums)


@pytest.mark.parametrize("n", (2, 5, 9, 20))
def test_single_draw_kernels_are_the_broadcast_form_bit_for_bit(n):
    theta = logits(n, n + 1)
    for index in np.flatnonzero(np.isfinite(theta)):
        for k in (1, 13, 1000):
            assert_same_call(kernels.conditional_values, ref_conditional_values, theta, index, k, seed=k)
    for trials in TRIALS:
        assert_same_call(kernels.pooled_conditional, ref_pooled_conditional, theta, trials, seed=trials)


@pytest.mark.parametrize("n", (2, 5, 9, 20))
def test_mixture_softmax_is_the_broadcast_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for rows in (1, 4, 9):
        theta = rng.normal(size=(rows, n))
        theta[rng.random(theta.shape) < 0.2] = -np.inf
        theta[:, 0] = rng.normal(size=rows)  # never a whole row
        for k in (1, 16, 100):
            u = rng.random((rows, 1 + k, n))
            for lam in LAMS:
                assert_same(kernels.mixture_softmax(theta, u.copy(), lam), ref_mixture_softmax(theta, u.copy(), lam))


@pytest.mark.parametrize("n", (2, 5, 9, 20))
def test_grmc_gradient_is_the_separate_draws_bit_for_bit(n):
    theta = logits(n, n + 2)
    cases = np.random.default_rng(n)
    obj = estimators.QuadraticObjective(cases.normal(size=(n, n)), cases.normal(size=n))

    def grmc(obj, theta, config, rng):
        est = estimators.grmc_gradient(obj, theta, config, rng)
        return est.grad_theta, est.outcome.onehot, est.outcome.index, est.value

    for k in (1, 13, 1000):
        for lam in LAMS:
            assert_same_call(grmc, ref_grmc_gradient, obj, theta, estimators.EstimatorConfig("grmc", lam, k), seed=k)


def test_exponentials_are_the_two_clamp_form_bit_for_bit():
    u = np.random.default_rng(6).random(10000)
    u[:6] = [0.0, 5e-324, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 2.0**-53]
    assert np.array_equal(kernels.exponentials(u.copy()), ref_exponentials(u.copy()))
    assert np.array_equal(kernels.log_uniforms(u.copy()), -ref_exponentials(u.copy()))


# ---------------------------------------------------------------------------
# the sub-block is a unit of the passes, not of the draws or the reductions


@pytest.mark.parametrize("k", (1, 13, 1000))
def test_grmc_stats_do_not_depend_on_the_sub_block_size(k, monkeypatch):
    theta = logits(5, 8)
    d_idx = outcomes(theta, 2 * CHUNK_TRIALS + 37, k)
    g_table = np.random.default_rng(2).normal(size=(5, 5))
    g_star = np.random.default_rng(3).normal(size=5)

    def run():
        rng = np.random.default_rng(17)
        return kernels.grmc_stats(theta, d_idx, g_table, g_star, 0.37, k, rng), rng.bit_generator.state

    want, want_state = run()
    # 1 trial per pass, 7 trials per pass, and whole chunks
    for entries in (1, 7, 7 * k * 5, CHUNK_TRIALS * k * 5):
        monkeypatch.setattr(kernels, "_SUB_BLOCK_ENTRIES", entries)
        got, state = run()
        assert_same(got, want)
        assert state == want_state
