"""Gumbel distribution primitives and categorical sampling built on them.

Covers the standard quantile/CDF/PDF triple, inverse-transform sampling,
Gumbel-max categorical draws, tempered-softmax relaxed draws, and sampling
from the posterior of the perturbed logits given an observed argmax
outcome.  Everything takes an explicit ``numpy.random.Generator``; there is
no module-level randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import logsumexp as log_partition  # log Z(theta), re-exported

EULER_MASCHERONI = 0.5772156649015329
STANDARD_GUMBEL_VARIANCE = np.pi**2 / 6.0


@dataclass(frozen=True)
class GumbelParams:
    """Location/scale pair of a Gumbel distribution; scale must be positive."""

    mu: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"scale must be positive, got beta={self.beta}")


STANDARD = GumbelParams(0.0, 1.0)


@dataclass(frozen=True)
class HardSample:
    """One-hot categorical outcome with its index."""

    onehot: np.ndarray
    index: int


@dataclass(frozen=True)
class PerturbedLogits:
    """Gumbel-perturbed logit vector and the index of its (tie-broken) maximum."""

    values: np.ndarray
    argmax_index: int


@dataclass(frozen=True)
class SoftSample:
    """Point on the simplex produced by a tempered softmax of perturbed logits."""

    probs: np.ndarray
    temperature: float


def validate_logits(theta) -> np.ndarray:
    """Coerce to a float64 logit vector and enforce the type invariants.

    -inf entries are allowed (zero-probability categories); +inf and NaN are
    not, at least one entry must be finite, and N >= 2.
    """
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValueError(f"logits must be a vector of length >= 2, got shape {arr.shape}")
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise ValueError("logits must not contain NaN or +inf")
    if not np.any(np.isfinite(arr)):
        raise ValueError("all logits are -inf: the categorical distribution is undefined")
    return arr


def softmax(z, axis=-1):
    """Numerically stable softmax (max-subtracted)."""
    z = np.asarray(z, dtype=np.float64)
    m = np.max(z, axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(z, axis=-1):
    """Numerically stable log-softmax (max-subtracted)."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def gumbel_pdf(x, params: GumbelParams = STANDARD):
    z = (np.asarray(x, dtype=np.float64) - params.mu) / params.beta
    return np.exp(-z - np.exp(-z)) / params.beta


def gumbel_cdf(x, params: GumbelParams = STANDARD):
    z = (np.asarray(x, dtype=np.float64) - params.mu) / params.beta
    return np.exp(-np.exp(-z))


def gumbel_icdf(u, params: GumbelParams = STANDARD):
    """Quantile function -beta*log(-log u) + mu.

    u is clamped to [UNIFORM_EPS, 1 - UNIFORM_EPS] before the double
    logarithm; values at or outside the open unit interval are rejected.
    """
    u = np.array(u, dtype=np.float64)  # a copy: the clamp and logs write over it
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = -params.beta * np.log(kernels.exponentials(u)) + params.mu
    return float(out) if out.ndim == 0 else out


def sample_gumbel(n: int, params: GumbelParams = STANDARD, rng: np.random.Generator = None):
    """n i.i.d. Gumbel(mu, beta) variates by inverse transform."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return -params.beta * np.log(kernels.exponentials(rng.random(n))) + params.mu


def onehot(index: int, n: int) -> np.ndarray:
    """The length-n float vector with a 1 at ``index``."""
    d = np.zeros(n)
    d[index] = 1.0
    return d


def gumbel_max_sample(theta, rng) -> HardSample:
    """One exact categorical draw via argmax of Gumbel-perturbed logits."""
    theta = validate_logits(theta)
    idx = int(kernels.gumbel_max_indices(theta, 1, rng)[0])
    return HardSample(onehot=onehot(idx, theta.shape[0]), index=idx)


def gumbel_max_indices(theta, n: int, rng) -> np.ndarray:
    """n independent Gumbel-max draws, returned as an index vector."""
    theta = validate_logits(theta)
    return kernels.gumbel_max_indices(theta, n, rng)


def perturb_logits(theta, rng, noise=None) -> PerturbedLogits:
    """theta + G with G i.i.d. standard Gumbel (or the supplied test noise)."""
    theta = validate_logits(theta)
    if noise is None:
        noise = sample_gumbel(theta.shape[0], STANDARD, rng)
    values = theta + np.asarray(noise, dtype=np.float64)
    return PerturbedLogits(values=values, argmax_index=int(np.argmax(values)))


def gumbel_softmax_sample(theta, lam: float, rng, noise=None) -> SoftSample:
    """Tempered softmax of Gumbel-perturbed logits.

    ``noise`` substitutes the Gumbel draw (test hook); temperatures must be
    positive.  The soft sample shares its argmax with the hard Gumbel-max
    outcome of the same perturbation.
    """
    if not lam > 0:
        raise ValueError(f"temperature must be positive, got {lam}")
    perturbed = perturb_logits(theta, rng, noise=noise)
    return SoftSample(probs=softmax(perturbed.values / lam), temperature=lam)


def conditional_gumbel_sample(theta, outcome, rng, exponentials=None) -> PerturbedLogits:
    """One draw of the perturbed logits theta+G given argmax == outcome.

    ``outcome`` is a HardSample or a bare index.  The chosen coordinate is
    -log(E_i) + log Z(theta); the others are -log(E_j/exp(theta_j) + E_i/Z),
    with E ~ Exp(1) drawn as -log(u) from a clamped uniform stream
    (``exponentials`` overrides the draw; test hook).  The argmax of the
    returned values is the conditioned index by construction.
    """
    theta = validate_logits(theta)
    index = outcome.index if isinstance(outcome, HardSample) else int(outcome)
    if not 0 <= index < theta.shape[0]:
        raise ValueError(f"outcome index {index} out of range for {theta.shape[0]} categories")
    if not np.isfinite(theta[index]):
        raise ValueError("cannot condition on a zero-probability category")
    if exponentials is not None:
        e = np.array(exponentials, dtype=np.float64)  # a copy: the kernel overwrites it
        values = kernels.posterior_values(theta, e, (..., index))
    else:
        values = kernels.conditional_values(theta, index, 1, rng)[0]
    return PerturbedLogits(values=values, argmax_index=int(np.argmax(values)))


def conditional_perturbed_batch(theta, index: int, k: int, rng) -> np.ndarray:
    """(k, N) matrix of perturbed-logit rows conditioned on argmax == index."""
    theta = validate_logits(theta)
    if not 0 <= index < theta.shape[0]:
        raise ValueError(f"outcome index {index} out of range for {theta.shape[0]} categories")
    if k < 1:
        raise ValueError(f"conditional sample count must be >= 1, got {k}")
    return kernels.conditional_values(theta, index, k, rng)


def pooled_conditional_values(theta, n: int, rng):
    """n rounds of (sample D, then theta+G | D); returns (values, indices).

    Pooling the rows over the latent D recovers the unconditional law of
    theta + G coordinate-wise (law of total probability), which is what the
    Kolmogorov-Smirnov check in the tests exercises.
    """
    theta = validate_logits(theta)
    return kernels.pooled_conditional(theta, n, rng)
