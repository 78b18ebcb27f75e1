"""Univariate distributions with density, CDF and quantile evaluation.

Every distribution exposes the triple (pdf, cdf, quantile) plus a log-density,
which is all the sampling and importance-sampling machinery needs.  The
quantile function is the generalized inverse Q(p) = inf{x : F(x) >= p}, so the
same interface covers continuous laws and laws with atoms.

The module also provides the equiprobable quantile-block partition
w_s = Q(s/m) and the conditional law of a value drawn uniformly inside one
block, which are the building blocks of stratified sampling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError, check_int, check_name

__all__ = [
    "Distribution",
    "Uniform01",
    "Normal",
    "Beta",
    "Gamma",
    "Discrete",
    "Custom",
    "BlockPartition",
    "block_boundaries",
    "conditional_pdf",
    "conditional_cdf",
    "conditional_quantile",
    "distribution_from_name",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Beta/gamma quantiles of 0 < p < 1 are clipped into the open support, so no
# sample lands on an endpoint where the density may vanish.
_TINY = np.nextafter(0.0, 1.0)
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Lower-tail roots below this solve the leading series term (_tail_quantile)
# instead of calling scipy, whose betaincinv returns NaN there for some shapes.
_SERIES_ROOT = 1e-12
# Below unit shape, gamma upper tails q = 1 - p >= this invert P(a, x) = p, which
# scipy does 2-5x faster than Q(a, x) = q; one ulp of p is 2^-33 relative to q.
_GAMMA_SEAM_Q = 2.0 ** -20


def _elementwise(fn, x):
    """``fn`` of ``x`` as a float64 array, returned as a float64 array of x's
    shape, or as a float when x is a scalar (a number or a 0-d array)."""
    out = np.asarray(fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    return float(out) if np.ndim(x) == 0 else out


def _nan_at_nan(fn):
    """``fn`` on a float64 array, with NaN wherever the array is NaN."""
    return lambda x: np.where(np.isnan(x), np.nan, fn(x))


def _tail_quantile(p, a, log_c, cut, inverse, rate=1.0):
    """t / rate with F(t) = p, where F(t) = t^a / c * (1 + O(t)) near t = 0.

    Roots below ``cut`` solve the leading term in log space, which keeps
    their relative accuracy where scipy's inverses lose it (subnormal t);
    above it the scipy ``inverse`` is floored at the cut, keeping Q monotone.
    """
    p = np.atleast_1d(p)
    with np.errstate(over="ignore"):
        x = np.exp((np.log(p) + log_c) / a - math.log(rate))
    far = x >= cut / rate
    x[far] = np.maximum(inverse(p[far]), cut) / rate
    return x


def _join_tails(p, lower, upper, cut, q_cut=0.5):
    """Q(p) from ``lower(p)`` for 1 - p >= q_cut and ``upper(1 - p)`` below
    (1 - p is exact for p >= 1/2), both clipped at ``cut`` = Q(1 - q_cut) so
    Q stays monotone where they meet."""
    out = np.empty_like(p)
    low = p <= 1.0 - q_cut
    out[low] = np.minimum(lower(p[low]), cut)
    out[~low] = np.maximum(upper(1.0 - p[~low]), cut)
    return out


def _check_finite_quantiles(dist) -> None:
    """Raise DomainError unless Q(2^-53) and Q(1 - 2^-53) of ``dist`` are
    finite: no uniform a generator draws lies outside [2^-53, 1 - 2^-53]."""
    with np.errstate(over="ignore"):
        ends = dist._quantile_inner(np.array([2.0 ** -53, 1.0 - 2.0 ** -53]))
    if not np.all(np.isfinite(ends)):
        raise DomainError(f"{dist!r} has quantiles beyond the float64 range: "
                          f"Q(2^-53) = {ends[0]}, Q(1 - 2^-53) = {ends[1]}")


class Distribution:
    """Base class: a univariate law with pdf, cdf and quantile function.

    ``pdf``, ``logpdf``, ``cdf`` and ``quantile`` take a float or an array
    and return a float64 array of its shape, or a float for scalar input;
    ``pdf`` and ``logpdf`` are NaN at a NaN x.
    Subclasses set ``name``, ``support`` and implement hooks on float64
    arrays: ``_cdf``, ``_quantile_inner`` (quantile for p strictly inside
    (0, 1)) and ``_pdf`` or ``_logpdf`` (each defaults to the other).
    """

    name: str = "distribution"
    support: tuple[float, float] = (-np.inf, np.inf)

    def pdf(self, x):
        return _elementwise(_nan_at_nan(self._pdf), x)

    def logpdf(self, x):
        return _elementwise(_nan_at_nan(self._logpdf), x)

    def cdf(self, x):
        return _elementwise(self._cdf, x)

    def quantile(self, p):
        """Generalized inverse CDF, Q(p) = inf{x : F(x) >= p}.

        p = 0 or p = 1 is allowed only when the corresponding support
        endpoint is finite; otherwise a DomainError is raised.
        """
        def inverse(p_arr):
            if np.any(np.isnan(p_arr)) or np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
                raise DomainError(f"quantile probability outside [0, 1]: {p!r}")
            lo, hi = self.support
            at_zero = p_arr == 0.0
            at_one = p_arr == 1.0
            if np.any(at_zero) and not np.isfinite(lo):
                raise DomainError(f"Q(0) is -inf for {self.name}; not a real quantile")
            if np.any(at_one) and not np.isfinite(hi):
                raise DomainError(f"Q(1) is +inf for {self.name}; not a real quantile")
            interior = ~(at_zero | at_one)
            out = np.empty(p_arr.shape, dtype=np.float64)
            out[at_zero] = lo
            out[at_one] = hi
            if np.any(interior):
                out[interior] = self._quantile_inner(p_arr[interior])
            return out

        return _elementwise(inverse, p)

    def _pdf(self, x):
        return np.exp(self._logpdf(x))

    def _logpdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self._pdf(x))

    def _cdf(self, x):
        raise NotImplementedError

    def _quantile_inner(self, p):
        """Quantile for probabilities strictly inside (0, 1)."""
        raise NotImplementedError

    def params(self) -> dict:
        """Distribution parameters, for reports and artifacts."""
        return {}

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


class Uniform01(Distribution):
    """Standard uniform law on (0, 1)."""

    name = "uniform"
    support = (0.0, 1.0)

    def _logpdf(self, x):
        return np.where((x >= 0.0) & (x <= 1.0), 0.0, -np.inf)

    def _cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def _quantile_inner(self, p):
        return p


class Normal(Distribution):
    """Normal law with mean ``mu`` and standard deviation ``sigma``."""

    name = "normal"

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (sigma > 0.0 and np.isfinite(sigma)) or not np.isfinite(mu):
            raise DomainError(f"normal requires finite mu and sigma > 0, got {mu}, {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        _check_finite_quantiles(self)

    def _logpdf(self, x):
        z = (x - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def _cdf(self, x):
        return special.ndtr((x - self.mu) / self.sigma)

    def _quantile_inner(self, p):
        return self.mu + self.sigma * special.ndtri(p)

    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}


class Beta(Distribution):
    """Beta law on (0, 1) with shape parameters ``a`` and ``b``.

    The CDF is the regularized incomplete beta function; the quantile
    inverts it with scipy's ``betaincinv`` in each tail, accurate relative
    to min(p, 1 - p), and lies strictly inside (0, 1).  It is monotone across
    the tail seam but only to ~4e-13 of x inside each tail (3.7e-13 at worst,
    Beta(0.05, 2) near p = 0.7): a value can sit one ulp outside [Q((s-1)/m), Q(s/m)].
    """

    name = "beta"
    support = (0.0, 1.0)

    def __init__(self, a: float, b: float):
        if not (a > 0.0 and b > 0.0 and np.isfinite(a) and np.isfinite(b)):
            raise DomainError(f"beta requires finite a > 0 and b > 0, got {a}, {b}")
        self.a = float(a)
        self.b = float(b)
        self._log_norm = special.betaln(self.a, self.b)
        self._median = self._lower(self.a, self.b, 0.5)[0]

    def _logpdf(self, x):
        inside = (x > 0.0) & (x < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(inside, x, 0.5)
            out = np.where(
                inside,
                (self.a - 1.0) * np.log(xs)
                + (self.b - 1.0) * np.log1p(-xs)
                - self._log_norm,
                -np.inf,
            )
        # Endpoint density is finite (and nonzero) only for unit shape.
        if self.a == 1.0:
            out = np.where(x == 0.0, -self._log_norm, out)
        if self.b == 1.0:
            out = np.where(x == 1.0, -self._log_norm, out)
        return out

    def _cdf(self, x):
        return special.betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    def _lower(self, a, b, p):
        # I_x(a, b) = x^a / (a B(a, b)) * (1 + a(1-b)/(a+1) x + ...): the cut
        # shrinks with b so the second term stays below 1e-12 relative.
        return _tail_quantile(p, a, math.log(a) + self._log_norm, _SERIES_ROOT / max(1.0, b),
                              lambda q: special.betaincinv(a, b, q))

    def _quantile_inner(self, p):
        # Each tail is inverted in the orientation that puts its root near 0,
        # where floats have far more resolution than near 1.
        out = _join_tails(p, lambda q: self._lower(self.a, self.b, q),
                          lambda q: 1.0 - self._lower(self.b, self.a, q), self._median)
        return np.clip(out, _TINY, _BELOW_ONE)

    def params(self):
        return {"a": self.a, "b": self.b}


class Gamma(Distribution):
    """Gamma law with ``shape`` and ``rate``: density proportional to
    x^(shape-1) * exp(-rate * x) on (0, inf).

    The quantile inverts the regularized incomplete gamma function,
    accurate relative to min(p, 1 - p), and is positive for p > 0: scipy's
    ``gammaincinv`` of p for p <= 1/2 and ``gammainccinv`` of q = 1 - p
    above.  Below unit shape, ``gammaincinv`` of p also serves the upper
    tail down to q = 2^-20, where one ulp of p is at most 2^-33 relative to
    q; ``gammainccinv`` takes the rest.  Q is clipped at each seam so it
    stays monotone there, but like :class:`Beta`'s it is monotone only to
    ~4e-13 of x inside each branch.
    """

    name = "gamma"
    support = (0.0, np.inf)

    def __init__(self, shape: float, rate: float):
        if not (shape > 0.0 and rate > 0.0 and np.isfinite(shape) and np.isfinite(rate)):
            raise DomainError(
                f"gamma requires finite shape > 0 and rate > 0, got {shape}, {rate}")
        self.shape = float(shape)
        self.rate = float(rate)
        self._log_norm = self.shape * math.log(self.rate) - special.gammaln(self.shape)
        with np.errstate(over="ignore"):
            self._median = self._lower(0.5)[0]
            self._seam = self._upper(_GAMMA_SEAM_Q)
        _check_finite_quantiles(self)

    def _logpdf(self, x):
        inside = x > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(inside, x, 1.0)
            out = np.where(
                inside,
                self._log_norm + (self.shape - 1.0) * np.log(xs) - self.rate * xs,
                -np.inf,
            )
        if self.shape == 1.0:
            out = np.where(x == 0.0, self._log_norm, out)
        return out

    def _cdf(self, x):
        return special.gammainc(self.shape, self.rate * np.maximum(x, 0.0))

    def _lower(self, p):
        # P(a, t) = t^a / Gamma(a + 1) * (1 - a t / (a + 1) + ...), t = rate * x.
        return _tail_quantile(p, self.shape, special.gammaln(self.shape + 1.0), _SERIES_ROOT,
                              lambda q: special.gammaincinv(self.shape, q), self.rate)

    def _upper(self, q):
        return special.gammainccinv(self.shape, q) / self.rate

    def _quantile_inner(self, p):
        upper = self._upper
        if self.shape < 1.0:
            upper = lambda q: _join_tails(  # noqa: E731
                1.0 - q, self._lower, self._upper, self._seam, _GAMMA_SEAM_Q)
        # Clip underflow last: 5e-324 divided by a rate above 2 rounds to 0.
        return np.maximum(_join_tails(p, self._lower, upper, self._median), _TINY)

    def params(self):
        return {"shape": self.shape, "rate": self.rate}


class Discrete(Distribution):
    """Law with finitely many atoms.

    ``points`` must be strictly increasing; ``probs`` are positive masses
    summing to one.  ``pdf`` returns the mass function; the quantile is a
    right-continuous step function satisfying Q(F(x_j)) = x_j at every atom.
    """

    name = "discrete"

    def __init__(self, points, probs):
        pts = np.asarray(points, dtype=np.float64)
        pr = np.asarray(probs, dtype=np.float64)
        if pts.ndim != 1 or pr.shape != pts.shape or pts.size == 0:
            raise DomainError("discrete requires matching 1-d points and probs")
        if np.any(np.diff(pts) <= 0.0):
            raise DomainError("discrete points must be strictly increasing")
        if np.any(pr <= 0.0):
            raise DomainError("discrete probabilities must be positive")
        total = pr.sum()
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"discrete probabilities must sum to 1, got {total}")
        self.points = pts
        self.probs = pr / total
        self._cum = np.cumsum(self.probs)
        self._cum[-1] = 1.0  # guard cumsum rounding so Q(1) is the last atom
        self.support = (float(pts[0]), float(pts[-1]))

    def _pdf(self, x):
        idx = np.minimum(np.searchsorted(self.points, x), self.points.size - 1)
        return np.where(self.points[idx] == x, self.probs[idx], 0.0)

    def _cdf(self, x):
        idx = np.searchsorted(self.points, x, side="right")
        return np.concatenate(([0.0], self._cum))[idx]

    def _quantile_inner(self, p):
        idx = np.searchsorted(self._cum, p, side="left")
        return self.points[idx]

    def params(self):
        return {"points": self.points.tolist(), "probs": self.probs.tolist()}


class Custom(Distribution):
    """Distribution defined by user-supplied callables.

    Only a quantile function is required (enough for inverse-transform
    sampling); density and CDF callables are optional.  The density comes
    from ``pdf`` or, failing that, from ``exp(logpdf)``; a DomainError is
    raised if a missing piece is requested.
    """

    name = "custom"

    def __init__(self, quantile, pdf=None, cdf=None, logpdf=None,
                 support=(-np.inf, np.inf)):
        self._user_quantile = quantile
        self._user_pdf = pdf
        self._user_cdf = cdf
        self._user_logpdf = logpdf
        self.support = (float(support[0]), float(support[1]))

    def _pdf(self, x):
        if self._user_pdf is not None:
            return self._user_pdf(x)
        if self._user_logpdf is None:
            raise DomainError("custom distribution has no density function")
        return super()._pdf(x)

    def _logpdf(self, x):
        if self._user_logpdf is None:
            return super()._logpdf(x)
        return self._user_logpdf(x)

    def _cdf(self, x):
        if self._user_cdf is None:
            raise DomainError("custom distribution has no CDF")
        return self._user_cdf(x)

    def _quantile_inner(self, p):
        return self._user_quantile(p)


class BlockPartition:
    """Equiprobable quantile-block boundaries w_s = Q(s/m), s = 0..m.

    For a continuous law each block (w_{s-1}, w_s] carries probability
    exactly 1/m.  Outer boundaries may be infinite sentinels when the
    support is unbounded.
    """

    def __init__(self, m: int, boundaries):
        self.m = check_int(m, "block count")
        self.boundaries = np.asarray(boundaries, dtype=np.float64)

    def __repr__(self):
        return f"BlockPartition(m={self.m}, boundaries={self.boundaries!r})"


def block_boundaries(dist: Distribution, m: int) -> BlockPartition:
    """Partition the support of ``dist`` into ``m`` equiprobable blocks."""
    m = check_int(m, "block count")
    w = np.empty(m + 1, dtype=np.float64)
    w[0], w[m] = dist.support
    if m > 1:
        w[1:m] = dist.quantile(np.arange(1, m) / m)
    return BlockPartition(m, w)


def conditional_pdf(dist: Distribution, m: int, s: int, x):
    """Density of a value drawn from block ``s`` of the ``m``-block partition:
    m * f(x) on (w_{s-1}, w_s], zero elsewhere, and NaN at a NaN x."""
    m, s = _check_block_index(m, s)
    w = block_boundaries(dist, m).boundaries
    return _elementwise(_nan_at_nan(
        lambda x: np.where((x > w[s - 1]) & (x <= w[s]), m * dist.pdf(x), 0.0)), x)


def conditional_cdf(dist: Distribution, m: int, s: int, x):
    """CDF of Q(U) for U uniform on ((s-1)/m, s/m]: clip(m*F(x) - (s-1), 0, 1).

    On the interior of block ``s`` this equals m * (F(x) - (s-1)/m); it is 0
    left of the block and 1 right of it, and averaging over s = 1..m with
    weight 1/m recovers F(x) exactly (also for laws with atoms).
    """
    m, s = _check_block_index(m, s)
    return _elementwise(lambda x: np.clip(m * dist.cdf(x) - (s - 1), 0.0, 1.0), x)


def conditional_quantile(dist: Distribution, m: int, s: int, p):
    """Quantile of block ``s``: Q((s + p - 1) / m)."""
    m, s = _check_block_index(m, s)

    def inverse(p_arr):
        if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):  # NaN fails too
            raise DomainError(f"conditional quantile probability outside [0, 1]: {p!r}")
        return dist.quantile((s + p_arr - 1.0) / m)

    return _elementwise(inverse, p)


def _check_block_index(m: int, s: int) -> tuple[int, int]:
    m, s = check_int(m, "block count"), check_int(s, "block index")
    if s > m:
        raise DomainError(f"block index must be in 1..{m}, got {s}")
    return m, s


_BUILDERS = {
    "uniform": (0, lambda p: Uniform01()),
    "normal": (2, lambda p: Normal(p[0], p[1])),
    "beta": (2, lambda p: Beta(p[0], p[1])),
    "gamma": (2, lambda p: Gamma(p[0], p[1])),
}


def distribution_from_name(name: str, params=()) -> Distribution:
    """Build a distribution from a family name and a parameter list.

    ``discrete`` expects params as alternating point/probability pairs
    (x1, p1, x2, p2, ...); the other families take their natural parameters
    in order.
    """
    key = check_name(name, (*_BUILDERS, "discrete"), "distribution")
    if isinstance(params, (str, bytes, bytearray)):
        raise DomainError(f"{key} parameters must be a list of numbers, got {params!r}")
    try:
        params = tuple(float(v) for v in params)
    except (TypeError, ValueError):
        raise DomainError(f"{key} parameters must be numbers, got {params!r}") from None
    if key == "discrete":
        if len(params) < 2 or len(params) % 2 != 0:
            raise DomainError("discrete params must be x1,p1,x2,p2,... pairs")
        return Discrete(params[0::2], params[1::2])
    n_args, build = _BUILDERS[key]
    if len(params) != n_args:
        raise DomainError(f"{key} takes {n_args} parameters, got {len(params)}")
    return build(params)
