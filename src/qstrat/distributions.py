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
import os

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
# scipy does 1.6-5x faster than Q(a, x) = q; one ulp of p is 2^-33 relative to q.
_GAMMA_SEAM_Q = 2.0 ** -20
# Largest Beta shape: scipy's betaincinv returns NaN for some shapes from 1e15
# on, and takes up to 1 ms a point at 1e14.
_MAX_BETA_SHAPE = 1e14
# Beta and Gamma quantiles are evaluated in blocks of this many points, and a
# call of two blocks or more is split over the CPUs the process may use, at
# least one block per CPU: in process, threaded over serial was 1.01 for
# Beta(3, 2) at 4096 points and 0.56-0.79 at 8192.
_QUANTILE_BLOCK = 4096


def _elementwise(fn, x):
    """``fn`` of ``x`` as a float64 array, returned as a float64 array of x's
    shape, or as a float when x is a scalar (a number or a 0-d array)."""
    out = np.asarray(fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    return float(out) if np.ndim(x) == 0 else out


def _nan_at_nan(fn):
    """``fn`` on a float64 array, with NaN wherever the array is NaN."""
    return lambda x: np.where(np.isnan(x), np.nan, fn(x))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity off Linux
        return os.cpu_count() or 1


def _in_pieces(kernel, p):
    """``kernel(p)`` for an elementwise kernel and a 1-D float64 ``p``, bit
    for bit, walking p in blocks of ``_QUANTILE_BLOCK`` points.

    With n = min(CPUs, whole blocks) > 1, the blocks are dealt out in n runs
    of consecutive blocks: the calling thread walks the first and a thread pool
    that lives for this call walks the others, each under the caller's numpy
    error state.  Errors are re-raised in run order, so the first is the one
    a serial walk over the same blocks meets.
    """
    if p.size <= _QUANTILE_BLOCK:
        return kernel(p)
    out = np.empty_like(p)
    starts = range(0, p.size, _QUANTILE_BLOCK)

    def walk(run, state):
        with np.errstate(**state):
            for start in run:
                stop = start + _QUANTILE_BLOCK
                out[start:stop] = kernel(p[start:stop])

    n = min(_cpus(), p.size // _QUANTILE_BLOCK)
    if n <= 1:
        walk(starts, {})
        return out
    from concurrent.futures import ThreadPoolExecutor  # loaded on the first split

    runs = [starts[i * len(starts) // n:(i + 1) * len(starts) // n] for i in range(n)]
    state = np.geterr()
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(walk, run, state) for run in runs[1:]]
        walk(runs[0], state)
    for future in futures:
        future.result()
    return out


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


def _join_tails(p, lower, upper, seam):
    """Q(p) from ``lower(p)`` for 1 - p >= q and ``upper(1 - p)`` below, at
    the ``seam`` (q, x) with x = Q(1 - q): both are clipped at x, so Q stays
    monotone where they meet (1 - p is exact for p >= 1/2)."""
    q, x = seam
    out = np.empty_like(p)
    low = p <= 1.0 - q
    out[low] = np.minimum(lower(p[low]), x)
    out[~low] = np.maximum(upper(1.0 - p[~low]), x)
    return out


def _check_finite_quantiles(dist) -> None:
    """Raise DomainError unless Q(2^-53) and Q(1 - 2^-53) of ``dist`` are
    finite: no uniform a generator draws lies outside [2^-53, 1 - 2^-53]."""
    with np.errstate(over="ignore"):
        ends = dist._quantile_inner(np.array([2.0 ** -53, 1.0 - 2.0 ** -53]))
    if not np.all(np.isfinite(ends)):
        raise DomainError(f"{dist!r} has quantiles beyond the float64 range: "
                          f"Q(2^-53) = {ends[0]}, Q(1 - 2^-53) = {ends[1]}")


def _check_finite_normaliser(dist) -> None:
    """Raise DomainError unless the log density normaliser of ``dist`` is
    finite: scipy's ``gammaln`` and ``betaln`` are inf at subnormal shapes."""
    if not np.isfinite(dist._log_norm):
        raise DomainError(f"{dist!r} has a density normaliser beyond the float64 range")


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
    # Whether ``quantile`` splits large calls over CPUs (_in_pieces); only for
    # elementwise, thread-safe hooks that are costly per point.
    _split_quantile = False

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
                inner = self._quantile_inner
                out[interior] = (_in_pieces(inner, p_arr[interior]) if self._split_quantile
                                 else inner(p_arr[interior]))
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
        # Far out, z * z overflows to inf and the log-density to its limit -inf.
        with np.errstate(over="ignore"):
            z = (x - self.mu) / self.sigma
            return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def _cdf(self, x):
        return special.ndtr((x - self.mu) / self.sigma)

    def _quantile_inner(self, p):
        with np.errstate(over="ignore"):
            x = self.mu + self.sigma * special.ndtri(p)
        # Q is finite on [2^-53, 1 - 2^-53] (checked when built); below, it can
        # overflow.
        low = np.isinf(x) & (p < 2.0 ** -53)
        if low.any():
            raise DomainError(f"Q({float(p[low][0])!r}) of {self!r} is beyond the float64 range")
        return x

    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}


class Beta(Distribution):
    """Beta law on (0, 1) with shape parameters ``a`` and ``b``, each in
    (0, 1e14] and not subnormal.

    The CDF is the regularized incomplete beta function.  The quantile is
    accurate relative to min(p, 1 - p) and lies strictly inside (0, 1).
    Each tail is inverted where its root has the most resolution: F by
    ``betaincinv`` below the median, and above it 1 - Q_{b,a}(1 - p) where
    the root is at least 1/2, else S by ``betainccinv`` (with a series for
    roots near 0 in both).  It is monotone across the median but only to
    ~4e-13 of x on each side (3.7e-13 at worst, Beta(0.05, 2) near
    p = 0.7): a value can sit one ulp outside [Q((s-1)/m), Q(s/m)].
    """

    name = "beta"
    support = (0.0, 1.0)
    _split_quantile = True

    def __init__(self, a: float, b: float):
        if not (0.0 < a <= _MAX_BETA_SHAPE and 0.0 < b <= _MAX_BETA_SHAPE):
            raise DomainError(f"beta requires finite a and b in (0, {_MAX_BETA_SHAPE:g}], "
                              f"got {a}, {b}")
        self.a = float(a)
        self.b = float(b)
        self._log_norm = special.betaln(self.a, self.b)
        _check_finite_normaliser(self)
        self._half_survival = special.betaincc(self.a, self.b, 0.5)
        self._seam = (0.5, self._lower(self.a, self.b, 0.5)[0])

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

    def _lower(self, a, b, p, inverse=special.betaincinv):
        # I_x(a, b) = x^a / (a B(a, b)) * (1 + a(1-b)/(a+1) x + ...): the cut
        # shrinks with b so the second term stays below 1e-12 relative.
        return _tail_quantile(p, a, math.log(a) + self._log_norm, _SERIES_ROOT / max(1.0, b),
                              lambda q: inverse(a, b, q))

    def _upper(self, q):
        # x with S(x) = q.  1 - Q_{b,a}(q) is exact only to ~1e-16, so where
        # the root lies below 1/2 (q > S(1/2)) S is inverted itself, by the
        # series on p = 1 - q below its cut (1 - p is q for p >= 1/2).
        x = np.empty_like(q)
        below = q > self._half_survival
        x[below] = self._lower(self.a, self.b, 1.0 - q[below],
                               lambda a, b, p: special.betainccinv(a, b, 1.0 - p))
        x[~below] = 1.0 - self._lower(self.b, self.a, q[~below])
        return x

    def _quantile_inner(self, p):
        out = _join_tails(p, lambda p: self._lower(self.a, self.b, p), self._upper, self._seam)
        return np.clip(out, _TINY, _BELOW_ONE)

    def params(self):
        return {"a": self.a, "b": self.b}


class Gamma(Distribution):
    """Gamma law with ``shape`` and ``rate``: density proportional to
    x^(shape-1) * exp(-rate * x) on (0, inf).

    The quantile inverts the regularized incomplete gamma function,
    accurate relative to min(p, 1 - p), and is positive for p > 0: scipy's
    ``gammaincinv`` of p up to one seam and ``gammainccinv`` of q = 1 - p
    past it.  The seam sits at the median from unit shape on, and at
    q = 2^-20 below it, where ``gammaincinv`` is 1.6-5x faster than
    ``gammainccinv`` and one ulp of p is at most 2^-33 relative to q.  Q is
    clipped at the seam so it stays monotone there, but like :class:`Beta`'s
    it is monotone only to ~4e-13 of x on each side.
    """

    name = "gamma"
    support = (0.0, np.inf)
    _split_quantile = True

    def __init__(self, shape: float, rate: float):
        if not (shape > 0.0 and rate > 0.0 and np.isfinite(shape) and np.isfinite(rate)):
            raise DomainError(
                f"gamma requires finite shape > 0 and rate > 0, got {shape}, {rate}")
        self.shape = float(shape)
        self.rate = float(rate)
        with np.errstate(invalid="ignore"):
            self._log_norm = self.shape * math.log(self.rate) - special.gammaln(self.shape)
        _check_finite_normaliser(self)
        with np.errstate(over="ignore"):
            self._seam = ((_GAMMA_SEAM_Q, self._upper(_GAMMA_SEAM_Q)) if self.shape < 1.0
                          else (0.5, self._lower(0.5)[0]))
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
        # Clip underflow last: 5e-324 divided by a rate above 2 rounds to 0.
        return np.maximum(_join_tails(p, self._lower, self._upper, self._seam), _TINY)

    def params(self):
        return {"shape": self.shape, "rate": self.rate}


class Discrete(Distribution):
    """Law with finitely many atoms.

    ``points`` must be finite and strictly increasing; ``probs`` are finite
    positive masses summing to one.  ``pdf`` returns the mass function; the
    quantile is a right-continuous step function satisfying Q(F(x_j)) = x_j
    at every atom.
    """

    name = "discrete"

    def __init__(self, points, probs):
        pts = np.asarray(points, dtype=np.float64)
        pr = np.asarray(probs, dtype=np.float64)
        if pts.ndim != 1 or pr.shape != pts.shape or pts.size == 0:
            raise DomainError("discrete requires matching 1-d points and probs")
        if not (np.isfinite(pts).all() and np.isfinite(pr).all()):
            raise DomainError("discrete points and probabilities must be finite")
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
    raised if a missing piece is requested.  The ``support`` (lo, hi) must
    have lo < hi.
    """

    name = "custom"

    def __init__(self, quantile, pdf=None, cdf=None, logpdf=None,
                 support=(-np.inf, np.inf)):
        self._user_quantile = quantile
        self._user_pdf = pdf
        self._user_cdf = cdf
        self._user_logpdf = logpdf
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise DomainError(f"custom support must have lo < hi, got ({lo}, {hi})")
        self.support = (lo, hi)

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
    lo = dist.support[0] if s == 1 else dist.quantile((s - 1) / m)
    hi = dist.support[1] if s == m else dist.quantile(s / m)
    return _elementwise(_nan_at_nan(
        lambda x: np.where((x > lo) & (x <= hi), m * dist.pdf(x), 0.0)), x)


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
