"""Closed-form moments, MSEs and spacing laws for uniform samples.

Everything here is a deterministic formula: moments of the QS/LQS uniform
variables, the mean/variance/MSE of uniform order statistics under IID and QS
sampling, and the exact laws of order-statistic spacings.  These results act
as the oracles for the simulation test suite and as the output of the
``theory`` CLI subcommand.

Integer-parameter formulas are evaluated in exact rational arithmetic and
rounded to float once at the end.  This makes the reduction identities exact
(a single LQS layer gives bit-identical moments to QS; all-unit layers give
zero correlation) and avoids cancellation in MSE forms that subtract
near-equal terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import Beta, _elementwise
from .errors import DomainError, PairUndefinedError, check_int, check_name
from .sampling import _as_layers

__all__ = [
    "MomentSummary",
    "SpacingLaw",
    "qs_uniform_moments",
    "lqs_uniform_moments",
    "adj_factor",
    "quantile_targets",
    "order_stat_moments",
    "mse_exact",
    "mse_asymptotic",
    "log_mse_gap_profile",
    "spacing_law",
]

METHODS = ("iid", "qs")
TARGETS = ("iid", "qs")


def _check_m_k(m: int, k: int) -> tuple[int, int]:
    m, k = check_int(m, "sample size m"), check_int(k, "order index k")
    if k > m:
        raise DomainError(f"order index k must be in 1..{m}, got {k}")
    return m, k


@dataclass(frozen=True)
class MomentSummary:
    """First and second moments of a family of exchangeable uniforms."""

    mean: float
    variance: float
    pair_covariance: float
    pair_correlation: float


def qs_uniform_moments(m: int) -> MomentSummary:
    """Moments of the m QS uniforms: mean 1/2, variance 1/12, and pairwise
    covariance -(m+1)/(12 m^2) (correlation -(m+1)/m^2).

    Raises PairUndefinedError for m = 1, where no pair exists.  These are the
    moments of one LQS layer of size m.
    """
    return lqs_uniform_moments((check_int(m, "sample size m"),))


def lqs_uniform_moments(layers) -> MomentSummary:
    """Moments of the LQS uniforms for layer sizes (m_1, ..., m_K):
    mean 1/2, variance 1/12, pairwise correlation
    -(m - sum_k 1/m_k) / (m (m - 1)) with m the total size.

    A single layer reduces exactly to ``qs_uniform_moments``; all-unit layers
    give zero correlation (the IID case).
    """
    spec = _as_layers(layers)
    m = spec.total
    if m == 1:
        raise PairUndefinedError("pairwise moments need a sample of size >= 2")
    recip = sum(Fraction(1, mk) for mk in spec.sizes)
    corr = -Fraction(m - recip, m * (m - 1))
    return MomentSummary(0.5, float(Fraction(1, 12)), float(corr / 12), float(corr))


def adj_factor(layers) -> float:
    """Ratio of the LQS pairwise correlation to the pure-QS one:
    (m^2 - sum_k m/m_k) / (m^2 - 1), always in [0, 1].

    Equals 1 for a single layer and 0 for all-unit layers.
    """
    spec = _as_layers(layers)
    m = spec.total
    if m < 2:
        raise DomainError("adjustment factor needs total sample size >= 2")
    num = m * m - sum(Fraction(m, mk) for mk in spec.sizes)
    return float(Fraction(num, m * m - 1))


def _targets_frac(m: int, k: int) -> tuple[Fraction, Fraction]:
    return Fraction(k, m + 1), Fraction(2 * k - 1, 2 * m)


def quantile_targets(m: int, k: int) -> tuple[float, float]:
    """Expected k-th order statistic of m uniforms under each method.

    Returns (k/(m+1), (k - 1/2)/m): the IID expectation (the Weibull plotting
    position) and the QS expectation (the Hazen plotting position).
    """
    m, k = _check_m_k(m, k)
    pk, pk_star = _targets_frac(m, k)
    return float(pk), float(pk_star)


def _quantile_target_arrays(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``quantile_targets(m, k)`` for k = 1..m, as two float64 arrays.

    Numerators and denominators are integers below 2^53, exact in float64,
    so one correctly rounded division gives the bits of the exact fraction.
    """
    m = check_int(m, "sample size m")
    k = np.arange(1.0, m + 1)
    return k / (m + 1), (2.0 * k - 1.0) / (2 * m)


def order_stat_moments(m: int, k: int, method: str) -> tuple[float, float]:
    """Mean and variance of the k-th uniform order statistic.

    IID sampling: U_(k) ~ Beta(k, m-k+1), so mean k/(m+1) and variance
    p(1-p)/(m+2).  QS sampling: U_(k) is uniform on ((k-1)/m, k/m], so mean
    (k - 1/2)/m and variance 1/(12 m^2) for every k.
    """
    m, k = _check_m_k(m, k)
    method = check_name(method, METHODS, "method")
    pk, pk_star = _targets_frac(m, k)
    if method == "iid":
        return float(pk), float(pk * (1 - pk) / (m + 2))
    return float(pk_star), float(Fraction(1, 12 * m * m))


def mse_exact(m: int, k: int, target: str, method: str) -> float:
    """Exact MSE of the k-th order statistic as a quantile estimator.

    ``method`` selects the sampling scheme of the order statistic (iid or qs);
    ``target`` selects the quantile being estimated: "iid" for k/(m+1) and
    "qs" for (k - 1/2)/m.  The four closed forms (p = k/(m+1),
    p* = (k-1/2)/m):

    ==========  =========  =============================================
    method      target     MSE
    ==========  =========  =============================================
    iid         iid        p(1-p)/(m+2)
    qs          iid        1/(3m^2) - p(1-p)/m^2
    iid         qs         ((m-2) p*(1-p*) + 3/4) / ((m+1)(m+2))
    qs          qs         1/(12 m^2)
    ==========  =========  =============================================
    """
    m, k = _check_m_k(m, k)
    target = check_name(target, TARGETS, "target")
    method = check_name(method, METHODS, "method")
    pk, pk_star = _targets_frac(m, k)
    if method == "iid" and target == "iid":
        out = pk * (1 - pk) / (m + 2)
    elif method == "qs" and target == "iid":
        out = Fraction(1, 3 * m * m) - pk * (1 - pk) / (m * m)
    elif method == "iid" and target == "qs":
        out = ((m - 2) * pk_star * (1 - pk_star) + Fraction(3, 4)) / ((m + 1) * (m + 2))
    else:
        out = Fraction(1, 12 * m * m)
    return float(out)


def mse_asymptotic(phi: float, m: int, target: str, method: str) -> float:
    """Large-m MSE approximation at fixed quantile level phi = k/m in (0, 1).

    IID sampling has MSE ~ phi(1-phi)/m for both targets; QS sampling has
    MSE ~ (1 - 3 phi(1-phi))/(3 m^2) against the IID target and exactly
    1/(12 m^2) against the QS target.
    """
    phi = float(phi)
    if not 0.0 < phi < 1.0:
        raise DomainError(f"phi must lie strictly inside (0, 1), got {phi}")
    m = check_int(m, "sample size m")
    target = check_name(target, TARGETS, "target")
    method = check_name(method, METHODS, "method")
    if method == "iid":
        return phi * (1.0 - phi) / m
    if target == "iid":
        return (1.0 - 3.0 * phi * (1.0 - phi)) / (3.0 * m * m)
    return 1.0 / (12.0 * m * m)


def log_mse_gap_profile(phi: float, target: str) -> float:
    """phi-dependent part of the asymptotic log-MSE gap log(IID) - log(QS).

    The gap grows like const + log(m) + r(phi) with
    r(phi) = log(phi(1-phi)) - log(1 - 3 phi(1-phi)) for the IID target and
    r(phi) = log(phi(1-phi)) for the QS target.
    """
    phi = float(phi)
    if not 0.0 < phi < 1.0:
        raise DomainError(f"phi must lie strictly inside (0, 1), got {phi}")
    target = check_name(target, TARGETS, "target")
    r = math.log(phi * (1.0 - phi))
    if target == "iid":
        r -= math.log(1.0 - 3.0 * phi * (1.0 - phi))
    return r


@dataclass(frozen=True)
class SpacingLaw:
    """Distribution of the gap between order statistics ell apart.

    ``kind`` is "beta" with ``params`` (alpha, beta) for IID sampling, or
    "triangular" with ``params`` (lo, mode, hi) for QS sampling.  ``pdf`` and
    ``cdf`` evaluate the law as a ``Distribution`` does; ``mean`` and
    ``variance`` are its exact moments.
    """

    kind: str
    params: tuple[float, ...]
    mean: float
    variance: float

    def pdf(self, x):
        if self.kind == "beta":
            return Beta(*self.params).pdf(x)
        lo, mode, hi = self.params

        def density(x):
            up = (x - lo) / ((mode - lo) * (hi - lo)) * 2.0
            down = (hi - x) / ((hi - mode) * (hi - lo)) * 2.0
            return np.where((x >= lo) & (x <= hi), np.where(x <= mode, up, down), 0.0)

        return _elementwise(density, x)

    def cdf(self, x):
        if self.kind == "beta":
            return Beta(*self.params).cdf(x)
        lo, mode, hi = self.params

        def cumulative(x):
            xc = np.clip(x, lo, hi)
            up = (xc - lo) ** 2 / ((mode - lo) * (hi - lo))
            down = 1.0 - (hi - xc) ** 2 / ((hi - mode) * (hi - lo))
            return np.where(xc <= mode, up, down)

        return _elementwise(cumulative, x)


def spacing_law(m: int, ell: int, method: str) -> SpacingLaw:
    """Law of the spacing U_(k+ell) - U_(k) of m uniforms (any valid k).

    IID sampling gives Beta(ell, m - ell + 1); QS sampling gives a symmetric
    triangular law on ((ell-1)/m, (ell+1)/m) with mode ell/m.  Neither law
    depends on k.
    """
    m, ell = check_int(m, "sample size m"), check_int(ell, "spacing lag")
    if ell > m - 1:
        raise DomainError(f"spacing lag must be in 1..{m - 1}, got {ell}")
    method = check_name(method, METHODS, "method")
    if method == "iid":
        mean = Fraction(ell, m + 1)
        var = Fraction(ell * (m - ell + 1), (m + 1) ** 2 * (m + 2))
        return SpacingLaw("beta", (float(ell), float(m - ell + 1)), float(mean), float(var))
    mean = Fraction(ell, m)
    var = Fraction(1, 6 * m * m)
    lo, mode, hi = Fraction(ell - 1, m), Fraction(ell, m), Fraction(ell + 1, m)
    return SpacingLaw(
        "triangular", (float(lo), float(mode), float(hi)), float(mean), float(var)
    )
