"""Hot numeric kernels of the Monte Carlo estimators, in numpy.

The Monte Carlo inner loops (Gumbel-max draws, conditional-posterior draws,
and the per-trial averaged softmax Jacobian-vector products of the gradient
estimators) dominate runtime at 1e5 trials x K conditional samples.

The conditional posterior of the perturbed logits given argmax == i is drawn
in exponential space.  With E ~ Exp(1) drawn as -log(u) from clamped
uniforms and p = softmax(theta), one row is

    q_j = E_j / p_j + E_i  (j != i),    q_i = E_i,    values = log Z - log q,

so the chosen coordinate is the row maximum by construction, and the
tempered softmax of the values is (q / q_i)^(-1/lambda), normalised, with
every ratio >= 1: no max subtraction is needed.  q is odd in E, so the
softmax may run on -E = log(u) and skip the negation: every product, sum and
ratio is the same up to sign, bit for bit.  ``_posterior_q`` is the one
implementation of this formula and ``tempered_softmax`` of its softmax.
E_i is spread along the last axis once and serves both the add
and the divide as contiguous passes: a pass that broadcasts an operand along
an innermost axis of length N costs 2-4x a contiguous one.  The row sums
stay broadcast: a second block-sized temporary per pass costs more in page
faults than it saves.
``averaged_jvp`` is the one Jacobian-vector product of the tempered softmax,
averaged over K rows in the pairwise form, which the estimators (STGS as
K = 1), ``grmc_stats`` and the search's mixture draw all use.
``mixture_softmax`` is the one single GRMC-K draw (an outcome, then K
posterior softmaxes, per row), of the search and ``grmc_gradient`` alike.

Draw-order contract (per kernel call): uniform blocks are consumed whole,
row-major, trial-major; no draws are interleaved within a trial.
``grmc_stats`` draws one (trials, K, N) block per sub-block of at most
``_SUB_BLOCK_ENTRIES`` entries (512 KiB, inside L2), in trial order, so the
stream is that of one block for all trials and its results do not depend on
the sub-block size.  It reduces its statistics per chunk of
``_CHUNK_TRIALS`` trials, so they depend on the chunk size through summation
rounding only.  ``mixture_softmax`` draws nothing: it takes its caller's
uniforms.
"""

from __future__ import annotations

import math

import numpy as np

UNIFORM_EPS = 1e-12  # clamp for the double-log transform; Eq-free: quantile is singular at 0/1

_CHUNK_TRIALS = 256  # trials per reduction of the GRMC-K statistics
_SUB_BLOCK_ENTRIES = 65536  # entries per GRMC-K posterior pass
_FEW_ROWS = 16  # up to this many rows, row_max takes np.max's row-by-row pass


def log_uniforms(u):
    """log(u) of clamped uniforms, written over ``u``: the negated Exp(1) variates."""
    np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS, out=u)
    return np.log(u, out=u)


def exponentials(u):
    """Exp(1) variates -log(u) from clamped uniforms, written over ``u``.

    -log of the result is the standard Gumbel variate of the same uniform.
    """
    return np.negative(log_uniforms(u), out=u)


def row_max(z):
    """The maximum over the last axis of ``z``, with the axis kept: np.max's
    values, NaN propagated.

    np.max reduces row by row, at about 70 ns a row.  Past ``_FEW_ROWS``
    rows, one elementwise maximum over a contiguous copy of the columns
    costs several times less.  A maximum does not depend on order, so only
    the sign of a zero may differ, where zeros of both signs tie for a row's
    maximum; no softmax, log-softmax or log-sum-exp reads it, as that row's
    exponential sum is at least 2.
    """
    n = z.shape[-1]
    if z.size <= _FEW_ROWS * n:
        return z.max(axis=-1, keepdims=True)
    return np.maximum.reduce(z.reshape(-1, n).T.copy(), axis=0).reshape(*z.shape[:-1], 1)


def logsumexp(theta):
    """log sum_j exp(theta_j) over the last axis, max-subtracted: a float for
    a vector, one per row otherwise.  The max, exp and sum run once over all
    rows, the log per row by ``math.log`` (``np.log`` rounds differently)."""
    theta = np.asarray(theta, dtype=np.float64)
    m = row_max(theta)
    with np.errstate(invalid="ignore"):  # an all -inf row: its nan sum goes unused
        sums = np.exp(theta - m).sum(axis=-1)
    m, sums = m.ravel().tolist(), np.ravel(sums).tolist()
    out = [mi + math.log(si) if math.isfinite(mi) else mi for mi, si in zip(m, sums)]
    return out[0] if theta.ndim == 1 else np.array(out).reshape(theta.shape[:-1])


def _posterior_q(e, inv_p, at):
    """Exponential-space posterior rows q (see the module docstring).

    ``e`` is an (..., N) block of Exp(1) variates, or of their negatives
    (giving -q), overwritten with q; ``inv_p`` holds 1/p = exp(log Z - theta)
    broadcast against it.  ``at`` indexes the conditioned coordinate of every
    row, so that ``e[at]`` has shape ``e.shape[:-1]``.  Returns ``(q, q_i)``,
    with q_i spread to q's shape.  q's conditioned entry is left for the
    caller to write.
    """
    q_i = np.repeat(e[at], e.shape[-1]).reshape(e.shape)  # E_i spread along the last axis
    np.multiply(e, inv_p, out=e)  # E_j / p_j; +inf where p_j == 0
    e += q_i
    return e, q_i


def tempered_softmax(q, q_i, at, lam):
    """softmax(values / lam) of posterior rows, from their q: (q / q_i)^(-1/lam), normalised.

    ``q`` (..., N) is overwritten with the softmax; ``q_i`` and ``at`` are
    as ``_posterior_q`` returns and takes them.
    """
    q /= q_i
    q[at] = 1.0  # q_i / q_i: E_i is finite and nonzero
    q **= -1.0 / lam
    q /= (q @ np.ones(q.shape[-1]))[..., None]  # row sums by matmul: far faster than sum(axis=-1)
    return q


def averaged_jvp(s, diff, lam):
    """v^T J of the tempered softmax, averaged over the K rows of ``s``.

    ``s`` (..., K, N) holds softmax rows and ``diff`` (..., N, N) the table
    v_j - v_m.  Pairwise form: out_j = sum_m (s^T s)_jm (v_j - v_m) / (K lam),
    equal to the mean of s_j (v_j - <v, s>) / lam over the rows, but a
    constant v annihilates exactly in floating point.
    """
    pair = np.matmul(np.swapaxes(s, -1, -2), s)  # (..., j, m)
    pair *= diff
    return pair.sum(axis=-1) / (s.shape[-2] * lam)


def posterior_values(theta, e, at):
    """Perturbed logits theta+G given the argmax, from Exp(1) rows ``e``.

    ``at`` indexes the conditioned coordinate of every row of ``e`` as in
    ``_posterior_q``: ``(..., i)`` conditions every row on argmax == i.
    ``e`` (float64) is overwritten.
    """
    log_z = logsumexp(theta)
    q, q_i = _posterior_q(e, np.exp(log_z - theta), at)
    q[at] = q_i[at]
    np.log(q, out=q)
    return np.subtract(log_z, q, out=q)


def _gumbel_argmax(theta, e):
    """Gumbel-max outcomes argmax(theta - log e) over the last axis; ``e``
    holds Exp(1) rows and is overwritten."""
    return np.argmax(theta - np.log(e, out=e), axis=-1)


def gumbel_max_indices(theta, n, rng):
    """n Gumbel-max argmax draws over the categories of ``theta``."""
    return _gumbel_argmax(theta, exponentials(rng.random((n, theta.shape[0])))).astype(np.int64)


def conditional_values(theta, index, k, rng):
    """k rows of perturbed logits theta+G conditioned on argmax == index."""
    return posterior_values(theta, exponentials(rng.random((k, theta.shape[0]))), (..., index))


def mixture_softmax(theta, u, lam):
    """The GRMC-K draw for every row of ``theta`` (R, N): the (R, K, N)
    tempered softmaxes and the (R,) outcomes.

    ``u`` (R, 1 + K, N) holds each row's uniforms, overwritten: a (1, N)
    block whose Gumbel-max draws the hard outcome, then a (K, N) block of
    posterior rows given it.
    """
    e = log_uniforms(u)  # -E: the softmax takes ratios
    idx = _gumbel_argmax(theta, np.negative(e[:, 0]))
    inv_p = np.exp(logsumexp(theta)[:, None, None] - theta[:, None])
    at = (np.arange(theta.shape[0]), slice(None), idx)
    post = np.ascontiguousarray(e[:, 1:])  # the in-place passes below are faster on a contiguous block
    return tempered_softmax(*_posterior_q(post, inv_p, at), at, lam), idx


def pooled_conditional(theta, n, rng):
    """n rows of (D ~ gumbel-max, then theta+G | D); returns (values, indices)."""
    idx = gumbel_max_indices(theta, n, rng)
    e = exponentials(rng.random((n, theta.shape[0])))
    return posterior_values(theta, e, (np.arange(n), idx)), idx


def grmc_stats(theta, d_idx, g_table, g_star, lam, k, rng):
    """Accumulate GRMC-K estimator trial statistics.

    Per trial t with forced outcome i = d_idx[t]: draw K conditional
    perturbations and average the tempered softmax JVPs of g_table[i]
    (``averaged_jvp``), so a constant g_table row annihilates exactly in
    floating point, not just in expectation.  Returns (sum_g, sum_gsq,
    sum_se, sum_se2) where se is the squared l2 deviation from g_star per
    trial.
    """
    n_cat = theta.shape[0]
    trials = d_idx.shape[0]
    inv_p = np.tile(np.exp(logsumexp(theta) - theta), (k, 1))  # 1/p for a (K, N) block, contiguous
    diff = g_table[:, :, None] - g_table[:, None, :]  # (outcome i, j, m)
    chunk = min(trials, _CHUNK_TRIALS)
    sub = max(1, min(chunk, _SUB_BLOCK_ENTRIES // (k * n_cat)))  # trials per posterior pass
    block = np.empty((sub, k, n_cat))
    jvp = np.empty((chunk, n_cat))
    sum_g = np.zeros(n_cat)
    sum_gsq = np.zeros(n_cat)
    sum_se = 0.0
    sum_se2 = 0.0
    for start in range(0, trials, _CHUNK_TRIALS):
        idx = d_idx[start : start + _CHUNK_TRIALS]
        for lo in range(0, idx.shape[0], sub):
            ix = idx[lo : lo + sub]
            b = ix.shape[0]
            e = log_uniforms(rng.random(out=block[:b]))  # -E: the softmax takes ratios
            at = (np.arange(b), slice(None), ix)
            s = tempered_softmax(*_posterior_q(e, inv_p, at), at, lam)
            jvp[lo : lo + b] = averaged_jvp(s, diff[ix], lam)
        chunk_jvp = jvp[: idx.shape[0]]
        sum_g += chunk_jvp.sum(axis=0)
        sum_gsq += (chunk_jvp * chunk_jvp).sum(axis=0)
        err = chunk_jvp - g_star[None, :]
        se = (err * err).sum(axis=1)
        sum_se += se.sum()
        sum_se2 += (se * se).sum()
    return sum_g, sum_gsq, sum_se, sum_se2
