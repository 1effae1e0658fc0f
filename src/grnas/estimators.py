"""Gradient estimators for E[f(D)] with D a categorical one-hot sample.

Two estimators over the logits theta:

* straight-through (STGS): forward value at the hard outcome D, backward
  through the tempered softmax Jacobian of the same perturbed logits;
* GRMC-K: the Rao-Blackwellized variant that redraws K perturbations from
  the posterior given D and averages their Jacobians.

Both hold the sampled noise fixed in the Jacobian (the derivative runs
through theta only); under that convention GRMC-1 is distributionally
identical to STGS and Rao-Blackwellization preserves the mean.  An exact
enumeration oracle and a trial-statistics harness (means, variances, MSE
against the oracle) round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .gumbel import (
    HardSample,
    PerturbedLogits,
    onehot,
    perturb_logits,
    softmax,
    validate_logits,
)

ENUMERATION_LIMIT = 20
CI_RELIABLE_MIN_TRIALS = 30


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and at what temperature / sample count."""

    kind: str  # "stgs" | "grmc"
    lam: float
    k_samples: int = 1

    def __post_init__(self):
        if self.kind not in ("stgs", "grmc"):
            raise ValueError(f"estimator kind must be 'stgs' or 'grmc', got {self.kind!r}")
        if not self.lam > 0:
            raise ValueError(f"temperature must be positive, got {self.lam}")
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")


class LinearObjective:
    """f(D) = c . D; gradient is c everywhere."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)

    def value(self, d) -> float:
        return float(self.c @ d)

    def grad(self, d) -> np.ndarray:
        return self.c.copy()


class QuadraticObjective:
    """f(D) = D . A . D + c . D with gradient (A + A^T) D + c."""

    def __init__(self, a, c=None):
        self.a = np.asarray(a, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"quadratic form must be square, got shape {self.a.shape}")
        self.c = np.zeros(self.a.shape[0]) if c is None else np.asarray(c, dtype=np.float64)

    def value(self, d) -> float:
        return float(d @ self.a @ d + self.c @ d)

    def grad(self, d) -> np.ndarray:
        return (self.a + self.a.T) @ d + self.c


@dataclass(frozen=True)
class GradientEstimate:
    """One estimator draw: gradient w.r.t. theta plus the forward outcome."""

    grad_theta: np.ndarray
    outcome: HardSample
    value: float


def _jvp(v, values, lam):
    """v^T J for J the Jacobian of softmax(values/lam) w.r.t. the logits, per row.

    The K = 1 case of ``kernels.averaged_jvp``: a constant v annihilates
    exactly in floating point.
    """
    s = softmax(np.asarray(values, dtype=np.float64) / lam)
    return kernels.averaged_jvp(s[..., None, :], v[..., :, None] - v[..., None, :], lam)


def softmax_jacobian_vector_product(v, perturbed, lam: float) -> np.ndarray:
    """Push v through the tempered-softmax Jacobian at the given perturbation."""
    values = perturbed.values if isinstance(perturbed, PerturbedLogits) else perturbed
    v = np.asarray(v, dtype=np.float64)
    if v.shape != np.shape(values):
        raise ValueError(f"vector shape {v.shape} does not match logits shape {np.shape(values)}")
    return _jvp(v, values, lam)


def stgs_gradient(obj, theta, lam: float, rng) -> GradientEstimate:
    """Single straight-through estimate: hard forward, relaxed backward."""
    theta = validate_logits(theta)
    if not lam > 0:
        raise ValueError(f"temperature must be positive, got {lam}")
    perturbed = perturb_logits(theta, rng)
    idx = perturbed.argmax_index
    d = onehot(idx, theta.shape[0])
    grad = _jvp(obj.grad(d), perturbed.values, lam)
    return GradientEstimate(grad_theta=grad, outcome=HardSample(d, idx), value=obj.value(d))


def grmc_gradient(obj, theta, config: EstimatorConfig, rng) -> GradientEstimate:
    """Single GRMC-K estimate: K posterior redraws, averaged Jacobians."""
    if config.kind != "grmc":
        raise ValueError(f"grmc_gradient requires kind='grmc', got {config.kind!r}")
    theta = validate_logits(theta)
    u = rng.random((1, 1 + config.k_samples, theta.shape[0]))
    s, (index,) = kernels.mixture_softmax(theta[None], u, config.lam)
    outcome = HardSample(onehot(index, theta.shape[0]), int(index))
    v = obj.grad(outcome.onehot)
    grad = kernels.averaged_jvp(s[0], v[:, None] - v[None, :], config.lam)
    return GradientEstimate(grad_theta=grad, outcome=outcome, value=obj.value(outcome.onehot))


def enumerate_objective(obj, n):
    """Tabulate f and grad f at every one-hot outcome: (values[N], grads[N,N])."""
    f_table = np.empty(n)
    g_table = np.empty((n, n))
    for i in range(n):
        d = onehot(i, n)
        f_table[i] = obj.value(d)
        g_table[i] = obj.grad(d)
    return f_table, g_table


def exact_expectation_gradient(obj, theta) -> np.ndarray:
    """d/dtheta of sum_i softmax(theta)_i f(e_i), by enumeration.

    Coordinate j is pi_j (f(e_j) - E[f]); only valid below the enumeration
    bound of 20 categories.
    """
    theta = validate_logits(theta)
    n = theta.shape[0]
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle limited to {ENUMERATION_LIMIT} categories, got {n}")
    f_table, _ = enumerate_objective(obj, n)
    pi = softmax(theta)
    # pairwise-difference form of pi_j (f_j - E[f]): constant f cancels exactly
    return pi * ((f_table[:, None] - f_table[None, :]) @ pi)


@dataclass
class EstimatorStats:
    """Moments of repeated estimator draws against the enumeration oracle.

    ``variance`` is the population (1/n) per-coordinate variance so that
    mse == bias_sq + trace_variance holds as an algebraic identity.
    """

    estimator: str
    lam: float
    k_samples: int
    trials: int
    mean: np.ndarray
    variance: np.ndarray
    trace_variance: float
    bias_sq: float
    mse: float
    mse_stderr: float
    exact: np.ndarray
    ci_reliable: bool
    mean_stderr: np.ndarray = field(default=None)


def _finalize_stats(name, lam, k, trials, sum_g, sum_gsq, sum_se, sum_se2, exact):
    mean = sum_g / trials
    variance = np.maximum(sum_gsq / trials - mean**2, 0.0)
    mse = sum_se / trials
    mse_var = max(sum_se2 / trials - mse**2, 0.0)
    bias = mean - exact
    return EstimatorStats(
        estimator=name,
        lam=lam,
        k_samples=k,
        trials=trials,
        mean=mean,
        variance=variance,
        trace_variance=float(variance.sum()),
        bias_sq=float(bias @ bias),
        mse=float(mse),
        mse_stderr=float(np.sqrt(mse_var / trials)),
        exact=exact,
        ci_reliable=trials >= CI_RELIABLE_MIN_TRIALS,
        mean_stderr=np.sqrt(variance / trials),
    )


def estimator_stats(obj, theta, config: EstimatorConfig, trials: int, rng) -> EstimatorStats:
    """Run the configured estimator ``trials`` times and report its moments.

    The unconditional perturbation block is always drawn first, so STGS and
    GRMC runs started from equal seeds share their forward outcomes D
    (common random numbers), which sharpens paired comparisons without
    changing either marginal law.
    """
    theta = validate_logits(theta)
    if trials < 2:
        raise ValueError(f"need at least 2 trials for variance estimates, got {trials}")
    n = theta.shape[0]
    f_table, g_table = enumerate_objective(obj, n)
    exact = exact_expectation_gradient(obj, theta)

    perturbations = theta[None, :] - np.log(kernels.exponentials(rng.random((trials, n))))
    d_idx = np.argmax(perturbations, axis=1).astype(np.int64)

    if config.kind == "stgs":
        grads = _jvp(g_table[d_idx], perturbations, config.lam)
        err = grads - exact[None, :]
        se = (err * err).sum(axis=1)
        sums = (grads.sum(axis=0), (grads * grads).sum(axis=0), se.sum(), (se * se).sum())
        name = "stgs"
    else:
        sums = kernels.grmc_stats(
            theta, d_idx, g_table, exact, config.lam, config.k_samples, rng
        )
        name = "grmc"
    return _finalize_stats(name, config.lam, config.k_samples, trials, *sums, exact)


def paired_stats(obj, theta, lam: float, k_samples: int, trials: int, seed: int):
    """STGS and GRMC-K statistics sharing forward outcomes via a common seed."""
    stgs = estimator_stats(
        obj, theta, EstimatorConfig("stgs", lam), trials, np.random.default_rng(seed)
    )
    grmc = estimator_stats(
        obj, theta, EstimatorConfig("grmc", lam, k_samples), trials, np.random.default_rng(seed)
    )
    return stgs, grmc


def means_within_pooled_se(a: EstimatorStats, b: EstimatorStats, n_se: float = 3.0) -> bool:
    """Per-coordinate |mean_a - mean_b| <= n_se * pooled standard error."""
    pooled = np.sqrt(a.mean_stderr**2 + b.mean_stderr**2)
    return bool(np.all(np.abs(a.mean - b.mean) <= n_se * pooled + 1e-15))
