"""Mean estimation and importance sampling on IID/QS/LQS input samples.

To estimate mu = E[H(X)] for X ~ f using a proposal density g with a usable
quantile function, the estimators draw x_1..x_m from g (by IID, QS or LQS
sampling) and average the importance function H(x) f(x) / g(x).  All three
sampling methods leave the estimator unbiased; stratification only changes
its variance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .distributions import Beta, Distribution, Gamma, _elementwise
from .errors import (
    DomainError, EmptySampleError, ZeroProposalDensityError, check_int, check_name,
)
from . import sampling
from .sampling import LayerSpec, sample_size

__all__ = [
    "ImportanceProblem",
    "EstimateSummary",
    "mean_estimate",
    "importance_weight",
    "importance_estimate",
    "estimate_replicates",
    "taylor_variance_approx",
    "beta_log_integral",
    "gamma_gaussian_integral",
    "BENCHMARKS",
]

@dataclass(frozen=True)
class ImportanceProblem:
    """An integral mu = E[H(X)], X ~ target, to be estimated via a proposal.

    The proposal must have positive density wherever H(x) * target.pdf(x) is
    nonzero, and a computable quantile function so stratified samples can be
    drawn from it.  ``true_value`` is optional and only used for scoring.
    """

    target: Distribution
    integrand: Callable[[np.ndarray], np.ndarray]
    proposal: Distribution
    true_value: float | None = None
    label: str = ""


@dataclass
class EstimateSummary:
    """Replicated estimates of one integral with their summary statistics.

    ``std_err`` is the sample standard deviation of the replicate estimates;
    it is NaN for a single replicate, whose spread is undefined (0.0 would
    read as an exact estimate).  ``rmse`` is the root of the mean squared
    deviation from the true value (present only when the problem's true
    value is known).
    """

    estimates: np.ndarray
    mean: float
    std_err: float
    rmse: float | None
    method: str
    m: int
    replicates: int
    seed: int
    layers: LayerSpec | None = None


def mean_estimate(values, h: Callable[[np.ndarray], np.ndarray]) -> float:
    """Arithmetic mean of h over the sample values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptySampleError("mean estimate needs at least one sample value")
    return float(np.mean(np.asarray(h(values), dtype=np.float64)))


def importance_weight(x, prob: ImportanceProblem):
    """Importance function H(x) * f(x) / g(x) evaluated from the densities.

    The density ratio is formed in log space, so near-underflow proposal
    densities do not overflow the quotient.  Points where H(x) f(x) = 0
    contribute weight 0 regardless of g; a zero proposal density anywhere
    else is an error, since the integral is then not recoverable from g.
    """
    def weight(x):
        h = np.asarray(prob.integrand(x), dtype=np.float64)
        log_f = prob.target.logpdf(x)
        log_g = prob.proposal.logpdf(x)
        dead = (h == 0.0) | np.isneginf(log_f)
        zero_g = np.isneginf(log_g) & ~dead
        if np.any(zero_g):
            raise ZeroProposalDensityError(
                f"proposal density is zero at x={x[zero_g].flat[0]} where H(x) f(x) != 0"
            )
        # Substitute neutral logs on dead points so -inf - -inf never forms.
        ratio = np.exp(np.where(dead, 0.0, log_f) - np.where(dead, 0.0, log_g))
        return np.where(dead, 0.0, h * ratio)

    return _elementwise(weight, x)


def importance_estimate(
    prob: ImportanceProblem,
    m: int,
    method: str = "qs",
    seed: int | None = None,
    layers=None,
) -> float:
    """One importance-sampling estimate of mu from a size-m proposal sample.

    ``method`` picks how the proposal sample is drawn: "iid", "qs", or "lqs"
    (the latter requires ``layers`` summing to m); see
    :func:`sampling.sample_size`.  A given seed must be an integer >= 0.
    """
    method, size = sample_size(method, m, layers)
    seed = None if seed is None else check_int(seed, "seed", low=0)
    return float(_estimates(prob, method, size, 1, lambda *_: [np.random.default_rng(seed)])[0])


def estimate_replicates(
    prob: ImportanceProblem,
    m: int,
    method: str,
    replicates: int,
    seed: int,
    layers=None,
) -> EstimateSummary:
    """Run independent replicate estimates with per-replicate seed streams.

    Replicate r draws its sample from ``default_rng(spawn_seed(seed, r))``,
    so results are reproducible and do not depend on the order in which
    replicates run.  Replicates are evaluated in chunks of stacked rows, one
    seeding pass, one generator, one quantile and one weight call per chunk.
    The seeding pass runs numpy's SeedSequence hash once over the chunk's
    indices (``sampling._child_generators``) and yields the very Generators
    ``default_rng(spawn_seed(seed, r))`` would, without two scalar hashes
    per replicate.  The generator draws row r from Generator r alone, so the
    chunk's uniforms are those of one-replicate calls.  Every quantile
    depends only on its own probability, so each estimate is bit for bit the
    one :func:`importance_estimate` gives for that child seed.  A chunk holds
    at most 2^14 points (or one row, if m is larger), so memory stays
    bounded however many replicates run while the per-call overhead is
    still amortized.  ``replicates`` must be an integer in [1, 2^32] (one
    32-bit stream index per replicate) and ``seed`` an integer >= 0.
    """
    replicates = check_int(replicates, "replicates")
    if replicates > sampling._MAX_STREAMS:
        raise DomainError(f"replicates must be <= 2^32, got {replicates}")
    seed = check_int(seed, "seed", low=0)
    method, size = sample_size(method, m, layers)
    children = functools.partial(sampling._child_generators, seed)
    estimates = _estimates(prob, method, size, replicates, children)
    mean = float(np.mean(estimates))
    std_err = float(np.std(estimates, ddof=1)) if replicates > 1 else math.nan
    rmse = None
    if prob.true_value is not None:
        rmse = float(np.sqrt(np.mean((estimates - prob.true_value) ** 2)))
    return EstimateSummary(
        estimates, mean, std_err, rmse, method, _size_m(method, size), replicates, seed,
        layers=size if method == "lqs" else None,
    )


# Points evaluated per quantile/weight call when replicates are stacked: large
# enough that per-call overhead vanishes, small enough that the (rows, m)
# working arrays stay a few hundred kB however many replicates run.
_CHUNK_POINTS = 16384


def _size_m(method: str, size) -> int:
    """The sample size m of a checked (method, size) pair."""
    return size.total if method == "lqs" else size


def _estimates(prob: ImportanceProblem, method: str, size, count: int, generators):
    """Importance estimates from ``count`` samples of ``size``, in chunks of
    stacked rows: ``generators(start, stop)`` gives the Generators of rows
    start..stop-1, and each chunk makes one generator call, row r drawn from
    its own Generator.  :func:`estimate_replicates` passes
    ``sampling._child_generators``, whose chunk of Generators comes from one
    vectorised SeedSequence pass and is bit for bit
    ``default_rng(spawn_seed(seed, r))`` for each row r."""
    rows = max(1, _CHUNK_POINTS // _size_m(method, size))
    out = np.empty(count, dtype=np.float64)
    for start in range(0, count, rows):
        rngs = generators(start, min(start + rows, count))
        u = sampling.uniforms(method, size, len(rngs), rngs)
        weights = importance_weight(prob.proposal.quantile(u), prob)
        out[start:start + len(u)] = np.mean(weights, axis=1)
    return out


def taylor_variance_approx(g_prime_half: float, m: int, method: str) -> float:
    """First-order variance approximation for a sample-mean of G(U).

    With G the composition of the integrand (or importance function) and the
    proposal quantile function, linearizing G around E[U] = 1/2 gives
    G'(1/2)^2 / (12 m) for IID sampling and G'(1/2)^2 / (12 m^3) for QS
    sampling: the stratification cancels all but 1/m^2 of the variance.
    Both formulas are exact only for linear G.
    """
    m = check_int(m, "sample size m")
    method = check_name(method, ("iid", "qs"), "method")
    g2 = float(g_prime_half) ** 2
    if method == "iid":
        return g2 / (12.0 * m)
    return g2 / (12.0 * m ** 3)


# ---------------------------------------------------------------------------
# Benchmark problems
# ---------------------------------------------------------------------------

def beta_log_integral() -> ImportanceProblem:
    """Benchmark integral of x*ln(x) against Beta(2, 2), proposal Beta(3, 2).

    The exact value is -7/24: int x^n ln(x) dx = -1/(n+1)^2 on (0, 1), so
    6 * (-1/9 + 1/16) = -7/24.
    """
    return ImportanceProblem(
        target=Beta(2.0, 2.0),
        integrand=lambda x: x * np.log(x),
        proposal=Beta(3.0, 2.0),
        true_value=-7.0 / 24.0,
        label="beta-log",
    )


def gamma_gaussian_integral() -> ImportanceProblem:
    """Benchmark integral of exp(-x^2) against Gamma(2, 5), proposal Gamma(2, 6).

    Completing the square in 25 * int_0^inf x exp(-x^2 - 5x) dx yields the
    closed form 12.5 - 31.25 * sqrt(pi) * e^6.25 * erfc(2.5) = 0.8236078.
    """
    true_value = 12.5 - 31.25 * math.sqrt(math.pi) * math.exp(6.25) * special.erfc(2.5)
    return ImportanceProblem(
        target=Gamma(2.0, 5.0),
        integrand=lambda x: np.exp(-x * x),
        proposal=Gamma(2.0, 6.0),
        true_value=float(true_value),
        label="gamma-gaussian",
    )


# Benchmark registry keyed by the study names used in the experiment harness.
BENCHMARKS = {
    "a": beta_log_integral,
    "b": gamma_gaussian_integral,
}
