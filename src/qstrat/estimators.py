"""Mean estimation and importance sampling on IID/QS/LQS input samples.

To estimate mu = E[H(X)] for X ~ f using a proposal density g with a usable
quantile function, the estimators draw x_1..x_m from g (by IID, QS or LQS
sampling) and average the importance function H(x) f(x) / g(x).  All three
sampling methods leave the estimator unbiased; stratification only changes
its variance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .distributions import Beta, Distribution, Gamma
from .errors import DomainError, EmptySampleError, ZeroProposalDensityError
from . import sampling
from .sampling import LayerSpec, sample_size, spawn_seed

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
    ``rmse`` is the root of the mean squared deviation from the true value
    (present only when the problem's true value is known).
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
    x_arr = np.asarray(x, dtype=np.float64)
    h = np.asarray(prob.integrand(x_arr), dtype=np.float64)
    log_f = np.asarray(prob.target.logpdf(x_arr), dtype=np.float64)
    log_g = np.asarray(prob.proposal.logpdf(x_arr), dtype=np.float64)
    dead = (h == 0.0) | np.isneginf(log_f)
    if np.any(np.isneginf(log_g) & ~dead):
        bad = np.asarray(x_arr)[np.isneginf(log_g) & ~dead]
        raise ZeroProposalDensityError(
            f"proposal density is zero at x={bad.flat[0]} where H(x) f(x) != 0"
        )
    # Substitute neutral logs on dead points so -inf - -inf never forms.
    ratio = np.exp(np.where(dead, 0.0, log_f) - np.where(dead, 0.0, log_g))
    out = np.where(dead, 0.0, h * ratio)
    if np.ndim(x) == 0:
        return float(out)
    return out


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
    :func:`sampling.sample_size`.
    """
    method, size = sample_size(method, m, layers)
    return float(_estimates(prob, method, size, [seed], 1)[0])


def estimate_replicates(
    prob: ImportanceProblem,
    m: int,
    method: str,
    replicates: int,
    seed: int,
    layers=None,
) -> EstimateSummary:
    """Run independent replicate estimates with per-replicate seed streams.

    Replicate r draws its sample from the child seed derived from (seed, r),
    so results are reproducible and do not depend on the order in which
    replicates run.  Replicates are evaluated in chunks of stacked rows, one
    quantile and one weight call per chunk; every quantile depends only on
    its own probability, so each estimate is bit for bit the one
    :func:`importance_estimate` gives for that child seed.  A chunk holds
    at most 2^14 points (or one row, if m is larger), so memory stays
    bounded however many replicates run while the per-call overhead is
    still amortized.
    """
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    method, size = sample_size(method, m, layers)
    seeds = (spawn_seed(seed, r) for r in range(replicates))
    estimates = _estimates(prob, method, size, seeds, replicates)
    mean = float(np.mean(estimates))
    std_err = float(np.std(estimates, ddof=1)) if replicates > 1 else 0.0
    rmse = None
    if prob.true_value is not None:
        rmse = float(np.sqrt(np.mean((estimates - prob.true_value) ** 2)))
    return EstimateSummary(
        estimates, mean, std_err, rmse, method, _size_m(method, size), int(replicates),
        int(seed),
        layers=size if method == "lqs" else None,
    )


# Points evaluated per quantile/weight call when replicates are stacked: large
# enough that per-call overhead vanishes, small enough that the (rows, m)
# working arrays stay a few hundred kB however many replicates run.
_CHUNK_POINTS = 16384


def _size_m(method: str, size) -> int:
    """The sample size m of a checked (method, size) pair."""
    return size.total if method == "lqs" else size


def _estimates(prob: ImportanceProblem, method: str, size, seeds, count: int):
    """Importance estimates from ``count`` samples of ``size``, the r-th drawn
    from ``default_rng`` of the r-th of ``seeds``, in chunks of stacked rows."""
    rows = max(1, _CHUNK_POINTS // _size_m(method, size))
    seeds = iter(seeds)
    out = np.empty(count, dtype=np.float64)
    for start in range(0, count, rows):
        u = np.concatenate([
            sampling.uniforms(method, size, 1, np.random.default_rng(s))[0]
            for s in itertools.islice(seeds, rows)
        ])
        weights = importance_weight(prob.proposal.quantile(u), prob)
        out[start:start + len(u)] = np.mean(weights, axis=1)
    return out


def taylor_variance_approx(g_prime_half: float, m: int, method: str) -> float:
    """First-order variance approximation for a sample-mean of G(U).

    With G the composition of the integrand (or importance function) and the
    proposal quantile function, linearizing G around E[U] = 1/2 gives
    G'(1/2)^2 / (12 m) for IID sampling and G'(1/2)^2 / (12 m^3) for QS
    sampling: the stratification cancels all but 1/m^2 of the variance.
    """
    m = int(m)
    if m < 1:
        raise DomainError(f"sample size m must be >= 1, got {m}")
    method = str(method).strip().lower()
    if method not in ("iid", "qs"):
        raise DomainError(f"method must be 'iid' or 'qs', got {method!r}")
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
