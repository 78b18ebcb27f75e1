"""Distribution layer: pdf/cdf/quantile contracts, quantile blocks and
conditional block laws."""

import concurrent.futures
import math
import os
import subprocess
import sys
import textwrap
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.optimize import brentq

from qstrat import distributions
from qstrat.distributions import (
    Beta,
    Custom,
    Discrete,
    Gamma,
    Normal,
    Uniform01,
    block_boundaries,
    conditional_cdf,
    conditional_pdf,
    conditional_quantile,
    distribution_from_name,
)
from qstrat.errors import DomainError
from qstrat.experiments import ExperimentConfig
from qstrat.sampling import sample_qs


def quad_quantile(pdf, p, lo, hi):
    """Independent quantile oracle: root of the quadrature CDF."""
    return brentq(lambda t: quad(pdf, lo, t)[0] - p, lo + 1e-12, hi, xtol=1e-13)


# Relative accuracy a quantile must reach in the tail that holds p: far
# tighter than the inverter's old absolute tolerance, far looser than eps.
REL_TOL = 1e-9


def tail_probability(dist, x, upper):
    """F(x), or the survival S(x) where ``upper``, from scipy's special
    functions; S uses the complement functions, never 1 - F."""
    if isinstance(dist, Normal):
        with np.errstate(over="ignore"):
            z = (x - dist.mu) / dist.sigma
        return special.ndtr(np.where(upper, -z, z))
    if isinstance(dist, Gamma):
        t = dist.rate * x
        return np.where(upper, special.gammaincc(dist.shape, t),
                        special.gammainc(dist.shape, t))
    return np.where(upper, special.betaincc(dist.a, dist.b, x),
                    special.betainc(dist.a, dist.b, x))


def tail_round_trip_ok(dist, p, x=None, prob=tail_probability):
    """Whether x = Q(p) has F(x) = p (S(x) = 1 - p for p > 1/2) to REL_TOL
    relative, plus the probability of one ulp of x, which no double can beat."""
    p = np.asarray(p, dtype=float)
    x = dist.quantile(p) if x is None else np.asarray(x, dtype=float)
    upper = p > 0.5
    tail = np.where(upper, 1.0 - p, p)
    at = prob(dist, x, upper)
    with np.errstate(over="ignore"):  # the ulp past the largest double is inf
        slack = np.maximum(np.abs(prob(dist, np.nextafter(x, np.inf), upper) - at),
                           np.abs(at - prob(dist, np.nextafter(x, -np.inf), upper)))
    return np.all(np.isfinite(x)) and bool(np.all(np.abs(at - tail) <= REL_TOL * tail + slack))


CONTINUOUS = [
    Uniform01(),
    Normal(0.0, 1.0),
    Beta(2.0, 2.0),
    Beta(3.0, 2.0),
    Gamma(2.0, 5.0),
]
DISCRETE = Discrete([0.0, 1.0, 2.5], [0.2, 0.5, 0.3])


class TestQuantile:
    def test_normal_median_is_zero(self):
        assert Normal(0, 1).quantile(0.5) == 0.0

    def test_symmetric_beta_median(self):
        assert Beta(2, 2).quantile(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_beta_3_2_median_matches_quadrature(self):
        # Oracle: bisection on the quadrature CDF of 12 x^2 (1-x).
        expected = quad_quantile(lambda x: 12 * x * x * (1 - x), 0.5, 0.0, 1.0)
        assert expected == pytest.approx(0.61427, abs=5e-6)
        assert Beta(3, 2).quantile(0.5) == pytest.approx(expected, abs=1e-9)

    def test_gamma_median_is_standard_median_over_rate(self):
        # Oracle: invert the rate-1 law by quadrature, then divide by the rate.
        std_median = quad_quantile(lambda x: x * np.exp(-x), 0.5, 0.0, 60.0)
        assert std_median / 5 == pytest.approx(0.33567, abs=5e-6)
        assert Gamma(2, 5).quantile(0.5) == pytest.approx(std_median / 5, abs=1e-9)

    @pytest.mark.parametrize("dist", CONTINUOUS)
    def test_monotone_in_p(self, dist):
        p = np.linspace(0.005, 0.995, 200)
        q = dist.quantile(p)
        assert np.all(np.diff(q) >= 0)

    @pytest.mark.parametrize("dist", CONTINUOUS)
    def test_round_trip_on_dense_grid(self, dist):
        p = np.linspace(1e-3, 1 - 1e-3, 997)
        assert np.max(np.abs(dist.cdf(dist.quantile(p)) - p)) <= 1e-10

    def test_round_trip_under_extreme_shapes(self):
        # Steep or vanishing densities stress the inverter; stay inside the
        # coarser bound float representation permits there.
        p = np.linspace(1e-3, 1 - 1e-3, 499)
        for dist in (Beta(0.5, 0.7), Beta(5.0, 0.4), Gamma(0.3, 2.0), Gamma(9.0, 0.5)):
            assert np.max(np.abs(dist.cdf(dist.quantile(p)) - p)) <= 1e-9

    def test_out_of_range_probability_rejected(self):
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                Uniform01().quantile(bad)

    def test_endpoints_allowed_only_on_finite_support(self):
        assert Uniform01().quantile(0.0) == 0.0
        assert Uniform01().quantile(1.0) == 1.0
        assert Gamma(2, 5).quantile(0.0) == 0.0
        with pytest.raises(DomainError):
            Gamma(2, 5).quantile(1.0)
        with pytest.raises(DomainError):
            Normal(0, 1).quantile(0.0)
        with pytest.raises(DomainError):
            Normal(0, 1).quantile(1.0)


class TestTailQuantiles:
    """Relative accuracy in both tails, p from 2^-53 (or below) to 1 - 2^-53."""

    def test_qs_sample_of_gamma_shape_0_05(self):
        dist = Gamma(0.05, 1.0)
        batch = sample_qs(dist, 2000, seed=3)
        assert np.all(batch.values > 0)
        assert tail_round_trip_ok(dist, batch.uniforms, batch.values)

    @pytest.mark.parametrize("dist", [Gamma(0.1, 1.0), Beta(0.05, 2.0)])
    def test_lower_tail_1e_10(self, dist):
        assert tail_round_trip_ok(dist, 1e-10)

    def test_arcsine_law_deep_lower_tail(self):
        # Beta(1/2, 1/2) has Q(p) = sin(pi p / 2)^2 in closed form.
        q = Beta(0.5, 0.5).quantile(1e-100)
        assert q == pytest.approx(math.sin(math.pi * 1e-100 / 2) ** 2, rel=1e-12, abs=0.0)
        assert q == pytest.approx(2.4674e-200, rel=1e-4, abs=0.0)

    def test_gamma_upper_tail_1e_12(self):
        dist = Gamma(0.1, 1.0)
        assert dist.quantile(1 - 1e-12) == pytest.approx(22.537, abs=5e-4)
        assert tail_round_trip_ok(dist, 1 - 1e-12)

    def test_beta_lower_tail_where_betaincinv_gives_nan(self):
        dist = Beta(5.0, 0.4)
        assert math.isfinite(dist.quantile(1e-200))
        assert tail_round_trip_ok(dist, np.logspace(-300, -60, 50))

    def test_beta_lower_tail_root_is_subnormal(self):
        dist = Beta(0.05, 2.0)
        q = dist.quantile(2.0 ** -53)
        assert 0.0 < q < np.finfo(float).tiny
        assert tail_round_trip_ok(dist, 2.0 ** -53)

    def test_small_rate_keeps_relative_accuracy(self):
        # The standard-law root is subnormal here while Q(p) = root / rate is
        # not, so F is taken from its leading series term in log space, which
        # is exact to 1e-12 relative below rate * x = 1e-12.
        def series_lower(dist, x, upper):
            with np.errstate(divide="ignore"):
                log_t = math.log(dist.rate) + np.log(x)
            return np.exp(dist.shape * log_t - special.gammaln(dist.shape + 1.0))

        dist = Gamma(0.01, 1e-3)
        p = np.linspace(2.0 ** -53, 6e-4, 200)
        x = dist.quantile(p)
        assert np.all(dist.rate * x < 1e-12)
        assert tail_round_trip_ok(dist, p, x, prob=series_lower)

    def test_gamma_monotone_across_the_median(self):
        dist = Gamma(0.01, 3.0)
        below, half, above = dist.quantile(np.nextafter(0.5, [0.0, 0.5, 1.0]))
        assert below <= half <= above

    @pytest.mark.parametrize("dist", [Beta(0.05, 2.0), Beta(0.5, 0.5), Beta(3.0, 2.0),
                                      Gamma(0.05, 2.0), Gamma(2.0, 5.0)])
    def test_monotone_to_a_tolerance_inside_each_tail(self, dist):
        # The Beta and Gamma docstrings give the tolerance: over 4001
        # consecutive doubles around each p, the largest reversal measured
        # 3.7e-13 of x (Beta(0.05, 2) near p = 0.7).  The bound of 1e-12
        # leaves room for other scipy builds; an unordered Q fails it.
        for p in (1e-10, 1e-5, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
            x = dist.quantile(p + np.arange(-2000, 2001) * np.spacing(p))
            assert np.all(x[:-1] <= x[1:] * (1.0 + 1e-12)), p

    @pytest.mark.parametrize("rate", [1.0, 7.0])
    @pytest.mark.parametrize("shape", [0.003, 0.05, 0.3, 0.9])
    def test_gamma_upper_seam_below_unit_shape(self, shape, rate):
        # Below unit shape the upper tail switches from gammaincinv(p) to
        # gammainccinv(1 - p) at 1 - p = 2^-20: Q is exactly ordered over
        # 64 consecutive doubles on each side, and accurate on both.
        seam = 1.0 - 2.0 ** -20
        p = seam + np.arange(-64, 65) * np.spacing(seam)
        dist = Gamma(shape, rate)
        x = dist.quantile(p)
        assert np.all(np.diff(x) >= 0)
        assert tail_round_trip_ok(dist, p, x)

    @pytest.mark.parametrize("shape, rate", [(1.0, 3.0), (2.0, 5.0)])
    def test_gamma_upper_tail_unchanged_from_unit_shape(self, shape, rate):
        # At shape >= 1 the whole upper half stays on gammainccinv, clipped at
        # the median, bit for bit.
        dist = Gamma(shape, rate)
        p = np.concatenate([np.linspace(0.5, 1.0, 2001)[1:-1],
                            1.0 - np.logspace(-16, -1, 200)])
        expected = np.maximum(special.gammainccinv(shape, 1.0 - p) / rate, dist.quantile(0.5))
        assert np.array_equal(dist.quantile(p), expected)

    def test_positive_where_the_root_underflows(self):
        # Q(p) of Gamma(0.01, 3) is below 5e-324 for every p under ~6e-4.
        q = Gamma(0.01, 3.0).quantile(np.logspace(-300, -3, 3000))
        assert np.all(q > 0.0)

    @pytest.mark.parametrize("dist", [Gamma(0.01, 3.0), Gamma(2.0, 5.0), Beta(0.05, 2.0),
                                      Beta(0.5, 0.5), Beta(2.0, 0.05)])
    def test_extreme_probabilities_land_where_density_is_positive(self, dist):
        q = dist.quantile(np.array([2.0 ** -53, 1.0 - 2.0 ** -53]))
        assert np.all(np.isfinite(dist.logpdf(q)))
        assert tail_round_trip_ok(dist, [2.0 ** -53, 1.0 - 2.0 ** -53], q)


SHAPES = st.floats(0.05, 50.0)
LAWS = st.one_of(st.builds(Beta, SHAPES, SHAPES), st.builds(Gamma, SHAPES, st.floats(1.0, 50.0)))
# Probabilities over [2^-53, 1 - 2^-53], with both tails reached on a log scale.
PROBS = st.one_of(
    st.floats(2.0 ** -53, 1.0 - 2.0 ** -53),
    st.floats(1.0, 53.0).map(lambda k: 2.0 ** -k),
    st.floats(1.0, 53.0).map(lambda k: 1.0 - 2.0 ** -k),
)


class TestQuantileProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(LAWS, PROBS, PROBS)
    def test_non_decreasing(self, dist, p1, p2):
        p1, p2 = sorted((p1, p2))
        q1, q2 = dist.quantile(p1), dist.quantile(p2)
        # Exact across the median, where two inverses meet.
        if p1 <= 0.5 < p2:
            assert q1 <= dist.quantile(0.5) <= q2
        # scipy's inverses wobble by a few ulp between neighbouring p (a
        # reversal spans under 1e-13 of the tail probability), so elsewhere
        # the order is asserted for p apart by more than that.
        if p2 - p1 > 1e-11 * min(p1, 1.0 - p2):
            assert q1 <= q2

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(LAWS, PROBS)
    def test_relative_round_trip(self, dist, p):
        assert tail_round_trip_ok(dist, p)


# Every parameter the constructors are given: finite, and positive from the
# smallest subnormal up to the float64 maximum where the law needs it.
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
LAW_PARAMS = st.one_of(
    st.tuples(st.just(Beta), POSITIVE, POSITIVE),
    st.tuples(st.just(Gamma), POSITIVE, POSITIVE),
    st.tuples(st.just(Normal), FINITE, POSITIVE),
)
BLOCK = distributions._QUANTILE_BLOCK


def log_uniform(lo, hi):
    """Floats from lo to hi, spread evenly in log10."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda k: 10.0 ** k)


# The domain where README promises the round trip, fixed before any run:
# Beta shapes in [1e-4, 1e3], Gamma shapes in [1e-300, 1e6] at rate 1 (at a
# rate below 1, rate * x rounds for a subnormal x, and the oracle misjudges
# it), and every Normal the constructor accepts.
ROUND_TRIP_PARAMS = st.one_of(
    st.tuples(st.just(Beta), log_uniform(1e-4, 1e3), log_uniform(1e-4, 1e3)),
    st.tuples(st.just(Gamma), log_uniform(1e-300, 1e6), st.just(1.0)),
    st.tuples(st.just(Normal), FINITE, POSITIVE),
)
# Both tails at every power of two, and the middle on a coarse grid.
ROUND_TRIP_GRID = np.concatenate([2.0 ** -np.arange(1, 54), np.linspace(0.05, 0.95, 19),
                                  1.0 - 2.0 ** -np.arange(2, 54)])


def accepted(params):
    """The law built from (family, *args), with no RuntimeWarning; an example
    whose parameters the constructor rejects is skipped."""
    family, *args = params
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return family(*args)
    except DomainError:
        assume(False)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestLawSweep:
    """Each law a constructor accepts, swept over p in [2^-53, 1 - 2^-53]."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(LAW_PARAMS, st.lists(PROBS, min_size=1, max_size=8))
    def test_quantile_is_finite_inside_the_support_without_warning(self, params, probs):
        dist = accepted(params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = dist.quantile(np.array(probs))
        lo, hi = dist.support
        assert np.all(np.isfinite(q)) and np.all((q > lo) & (q < hi)), (dist, probs, q)

    @settings(derandomize=True, max_examples=900, deadline=None)
    @given(ROUND_TRIP_PARAMS, st.lists(PROBS, min_size=1, max_size=8))
    @example((Beta, 0.01, 3.0), [0.6])
    def test_round_trip_in_both_tails(self, params, probs):
        # F(Q(p)) = p below 1/2 and S(Q(p)) = 1 - p above it, to REL_TOL
        # relative plus the probability of one ulp of Q(p).
        dist = accepted(params)
        p = np.concatenate([probs, ROUND_TRIP_GRID])
        x = dist.quantile(p)
        assert tail_round_trip_ok(dist, p, x), (
            dist, [pi for pi, xi in zip(p, x) if not tail_round_trip_ok(dist, pi, xi)][:5])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(LAW_PARAMS, st.lists(PROBS, min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
    @example((Gamma, 0.05, 1.0), [2.0 ** -53, 1.0 - 2.0 ** -53], 0)
    @example((Beta, 0.05, 2.0), [2.0 ** -53, 0.7, 1.0 - 2.0 ** -53], 1)
    def test_split_quantile_has_the_bits_of_small_calls(self, params, probs, seed):
        # A 2-D, non-contiguous array of three blocks, split over two threads,
        # against the same points in calls below one block.
        dist = accepted(params)
        rng = np.random.default_rng(seed)
        grid = np.empty((67, 250))
        p = grid[:, ::2]
        n = p.size
        tails = 2.0 ** -rng.uniform(1.0, 53.0, n)
        flat = np.where(rng.random(n) < 0.5, tails, 1.0 - tails)
        flat[::3] = np.clip(rng.random(n)[::3], 2.0 ** -53, 1.0 - 2.0 ** -53)
        flat[rng.integers(0, n, len(probs))] = probs
        p[...] = flat.reshape(p.shape)
        with mock.patch.object(distributions, "_cpus", lambda: 2):
            q = dist.quantile(p)
        small = np.concatenate([dist.quantile(part) for part in np.array_split(flat, 9)])
        assert q.shape == p.shape
        np.testing.assert_array_equal(bits(q).ravel(), bits(small))


class TestQuantileThreads:
    """Beta and Gamma quantiles of two blocks or more run on a thread pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The thread counts of the pools started, by any split quantile."""
        made = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                made.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        return made

    def test_split_follows_the_cpus_and_keeps_every_bit(self, monkeypatch, pools):
        p = np.random.default_rng(5).random(5 * BLOCK + 17)
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(distributions, "_cpus", lambda cpus=cpus: cpus)
            for dist in (Beta(3, 2), Gamma(2, 6), Gamma(0.05, 1), Beta(0.05, 2)):
                serial = np.concatenate([dist._quantile_inner(p[i:i + 1000])
                                         for i in range(0, p.size, 1000)])
                np.testing.assert_array_equal(bits(dist.quantile(p)), bits(serial))
        # Five whole blocks and a part: 2 and 3 runs, and 5 at 8 CPUs; the
        # caller walks one run.
        assert pools == [1] * 4 + [2] * 4 + [4] * 4

    def test_more_workers_than_cores_with_a_short_switch_interval(self, monkeypatch):
        # Eight runs write disjoint slices of one output while threads switch
        # every microsecond; a lost or misplaced block changes the bits.
        monkeypatch.setattr(distributions, "_cpus", lambda: 8)
        dist = Gamma(0.05, 1)
        p = np.random.default_rng(9).random(8 * BLOCK + 5)
        serial = np.concatenate([dist._quantile_inner(p[i:i + BLOCK])
                                 for i in range(0, p.size, BLOCK)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                np.testing.assert_array_equal(bits(dist.quantile(p)), bits(serial))
        finally:
            sys.setswitchinterval(interval)

    def test_small_calls_and_other_families_run_inline(self, monkeypatch, pools):
        monkeypatch.setattr(distributions, "_cpus", lambda: 4)
        p = np.linspace(0.001, 0.999, 2 * BLOCK - 1)
        Beta(3, 2).quantile(p)
        Gamma(2, 6).quantile(p)
        p = np.linspace(0.001, 0.999, 8 * BLOCK)
        for dist in (Normal(0, 1), Uniform01(), DISCRETE,
                     Custom(quantile=np.sqrt, support=(0.0, 1.0))):
            dist.quantile(p)
        assert pools == []

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Refused)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        p = np.linspace(0.001, 0.999, 8 * BLOCK)
        Beta(3, 2).quantile(p)
        Gamma(2, 6).quantile(p)
        # Two CPUs reach the refused pool, so the patch is where pools start.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(AssertionError, match="thread pool was started"):
            Beta(3, 2).quantile(p)

    def test_caller_errstate_holds_in_the_workers(self, monkeypatch):
        # The series root of Gamma(0.05, 1) at p = 1e-20 underflows in exp,
        # which numpy ignores by default; the point lies in the second run.
        monkeypatch.setattr(distributions, "_cpus", lambda: 2)
        p = np.full(2 * BLOCK, 0.5)
        p[-1] = 1e-20
        dist = Gamma(0.05, 1)
        assert dist.quantile(p)[-1] > 0.0
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            dist.quantile(p)
        with np.errstate(under="warn"), pytest.warns(RuntimeWarning, match="underflow"):
            dist.quantile(p)

    @pytest.mark.parametrize("at", [[-1], [BLOCK + 3, -1], [0, -1]])
    def test_piece_error_is_the_serial_error(self, monkeypatch, at):
        p = np.full(3 * BLOCK, 0.5)
        p[at] = 1e-20

        def error(run):
            with np.errstate(under="raise"), pytest.raises(FloatingPointError) as info:
                run(p)
            return type(info.value), str(info.value)

        dist = Gamma(0.05, 1)
        unsplit = error(dist._quantile_inner)
        for cpus in (3, 2, 1):
            monkeypatch.setattr(distributions, "_cpus", lambda cpus=cpus: cpus)
            assert error(dist.quantile) == unsplit

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_errors_are_raised_in_run_order(self, monkeypatch, cpus):
        # Every block from the second on fails with its own message; the one
        # raised is the first block's in order, as a serial walk meets it.
        def kernel(x):
            if x[0] >= BLOCK:
                raise ValueError(f"block from {x[0]:.0f}")
            return x

        monkeypatch.setattr(distributions, "_cpus", lambda: cpus)
        with pytest.raises(ValueError, match=f"^block from {BLOCK}$"):
            distributions._in_pieces(kernel, np.arange(4 * BLOCK, dtype=np.float64))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork is tested on Linux")
    def test_forked_child_runs_a_split_quantile(self):
        # No pool thread outlives its call, so a child forked after a split
        # quantile starts its own pool; Python 3.12+ warns on a fork with
        # threads alive, which -W error turns into a failure.
        script = textwrap.dedent("""
            import os, threading
            import numpy as np
            from qstrat import distributions
            distributions._cpus = lambda: 2
            p = np.linspace(0.001, 0.999, 4 * distributions._QUANTILE_BLOCK)
            q = distributions.Beta(3, 2).quantile(p)
            assert threading.active_count() == 1
            pid = os.fork()
            if pid == 0:
                same = np.array_equal(distributions.Beta(3, 2).quantile(p), q)
                os._exit(0 if same else 3)
            _, status = os.waitpid(pid, 0)
            raise SystemExit(os.waitstatus_to_exitcode(status))
        """)
        done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestCdfPdf:
    def test_cdf_values(self):
        assert Normal(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert Uniform01().cdf(0.3) == pytest.approx(0.3, abs=1e-15)
        assert Beta(2, 2).cdf(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_pdf_values(self):
        assert Uniform01().pdf(0.7) == 1.0
        assert Beta(2, 2).pdf(0.5) == pytest.approx(1.5, abs=1e-12)
        assert Gamma(2, 5).pdf(0.0) == 0.0

    @pytest.mark.parametrize("dist", CONTINUOUS)
    def test_pdf_nonnegative_and_zero_outside_support(self, dist):
        x = np.linspace(-3, 6, 301)
        fx = dist.pdf(x)
        assert np.all(fx >= 0)
        lo, hi = dist.support
        outside = (x < lo) | (x > hi)
        assert np.all(fx[outside] == 0)

    @pytest.mark.parametrize("dist", CONTINUOUS)
    def test_cdf_nondecreasing_with_unit_range(self, dist):
        x = np.linspace(-8, 12, 801)
        F = dist.cdf(x)
        assert np.all(np.diff(F) >= 0)
        assert F[0] == pytest.approx(0.0, abs=1e-12)
        assert F[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dist", CONTINUOUS)
    def test_logpdf_matches_pdf(self, dist):
        x = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(np.exp(dist.logpdf(x)), dist.pdf(x), rtol=1e-12)

    @pytest.mark.parametrize("x", [1e200, -1e200, 1e300, -1e300])
    def test_normal_density_far_out_is_zero_without_overflow(self, x):
        # (x / sigma)^2 passes the float64 maximum; RuntimeWarnings are errors here.
        assert Normal(0, 1).logpdf(x) == -math.inf
        assert Normal(0, 1).pdf(x) == 0.0
        assert Normal(1, 1e-100).logpdf(np.array([x, 1.0]))[0] == -math.inf


class TestDiscrete:
    def test_quantile_is_generalized_inverse_at_atoms(self):
        for xj in DISCRETE.points:
            assert DISCRETE.quantile(DISCRETE.cdf(xj)) == xj

    def test_quantile_is_right_continuous_step(self):
        # Just above a cumulative level the quantile jumps to the next atom.
        assert DISCRETE.quantile(0.2) == 0.0
        assert DISCRETE.quantile(0.2 + 1e-12) == 1.0
        assert DISCRETE.quantile(0.7) == 1.0
        assert DISCRETE.quantile(0.7 + 1e-12) == 2.5

    def test_pmf_and_cdf(self):
        assert DISCRETE.pdf(1.0) == pytest.approx(0.5)
        assert DISCRETE.pdf(0.5) == 0.0
        assert DISCRETE.cdf(0.99) == pytest.approx(0.2)
        assert DISCRETE.cdf(1.0) == pytest.approx(0.7)
        assert DISCRETE.cdf(-1.0) == 0.0
        assert DISCRETE.cdf(99.0) == 1.0

    def test_large_atom_repeats_block_boundaries(self):
        # An atom holding more than 1/m of the mass spans several blocks.
        w = block_boundaries(DISCRETE, 10).boundaries
        assert np.sum(w == 1.0) >= 4

    def test_validation(self):
        with pytest.raises(DomainError):
            Discrete([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            Discrete([0.0, 1.0], [0.7, 0.7])
        with pytest.raises(DomainError):
            Discrete([0.0, 1.0], [1.0, 0.0])
        # NaN fails no order test, so finiteness is checked on its own.
        for points, probs in (([0.0, 1.0], [math.nan, 1.0]), ([0.0, math.nan], [0.5, 0.5]),
                              ([0.0, math.inf], [0.5, 0.5]), ([-math.inf, 0.0], [0.5, 0.5]),
                              ([0.0, 1.0], [math.inf, 1.0])):
            with pytest.raises(DomainError, match="must be finite"):
                Discrete(points, probs)
        for support in ((1.0, 0.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(DomainError, match="lo < hi"):
                Custom(np.sqrt, support=support)


class TestBlocks:
    def test_uniform_boundaries(self):
        np.testing.assert_allclose(
            block_boundaries(Uniform01(), 4).boundaries, [0, 0.25, 0.5, 0.75, 1]
        )

    def test_normal_boundaries_use_infinite_sentinels(self):
        w = block_boundaries(Normal(0, 1), 2).boundaries
        assert w[0] == -np.inf and w[2] == np.inf
        assert w[1] == 0.0

    def test_symmetric_beta_boundaries(self):
        w = block_boundaries(Beta(2, 2), 2).boundaries
        np.testing.assert_allclose(w, [0, 0.5, 1], atol=1e-9)

    @pytest.mark.parametrize("dist", CONTINUOUS)
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_each_block_carries_mass_one_over_m(self, dist, m):
        w = block_boundaries(dist, m).boundaries
        F = np.array([dist.cdf(v) if np.isfinite(v) else (0.0 if v < 0 else 1.0)
                      for v in w])
        np.testing.assert_allclose(np.diff(F), 1.0 / m, atol=1e-9)

    def test_invalid_block_count(self):
        with pytest.raises(DomainError):
            block_boundaries(Uniform01(), 0)


class TestConditionalLaws:
    def test_uniform_interior_quantile(self):
        assert conditional_quantile(Uniform01(), 10, 3, 0.5) == pytest.approx(0.25)

    def test_single_block_reduces_to_plain_quantile(self):
        p = np.linspace(0.01, 0.99, 23)
        for dist in CONTINUOUS:
            np.testing.assert_allclose(
                conditional_quantile(dist, 1, 1, p), dist.quantile(p), rtol=1e-12
            )

    def test_lower_block_upper_edge_is_median(self):
        assert conditional_quantile(Normal(0, 1), 2, 1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_conditional_cdf_midpoint(self):
        assert conditional_cdf(Uniform01(), 4, 2, 0.375) == pytest.approx(0.5)

    def test_left_edge_is_zero(self):
        for dist in CONTINUOUS:
            w = block_boundaries(dist, 5).boundaries
            for s in range(2, 6):  # interior left edges are finite
                assert conditional_cdf(dist, 5, s, w[s - 1]) == pytest.approx(0.0, abs=1e-9)

    def test_normal_conditional_cdf_value(self):
        # 2 * F(x) at the standard normal lower quartile.
        x = -0.6744898
        expected = 2 * Normal(0, 1).cdf(x)
        assert conditional_cdf(Normal(0, 1), 2, 1, x) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("dist", CONTINUOUS + [DISCRETE])
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_mixture_of_block_cdfs_recovers_cdf(self, dist, m):
        x = np.linspace(-4, 6, 101)
        mix = np.mean([conditional_cdf(dist, m, s, x) for s in range(1, m + 1)], axis=0)
        assert np.max(np.abs(mix - dist.cdf(x))) <= 1e-9

    @pytest.mark.parametrize("dist", CONTINUOUS)
    @pytest.mark.parametrize("m", [2, 5])
    def test_conditional_quantile_inverts_conditional_cdf(self, dist, m):
        p = np.linspace(0.05, 0.95, 19)
        for s in range(1, m + 1):
            x = conditional_quantile(dist, m, s, p)
            np.testing.assert_allclose(conditional_cdf(dist, m, s, x), p, atol=1e-8)

    def test_conditional_pdf_integrates_to_one(self):
        w = block_boundaries(Beta(2, 2), 4).boundaries
        val, _ = quad(
            lambda x: conditional_pdf(Beta(2, 2), 4, 2, x), 0, 1, points=[w[1], w[2]]
        )
        assert val == pytest.approx(1.0, abs=1e-9)
        assert conditional_pdf(Beta(2, 2), 4, 2, w[1] / 2) == 0.0

    @pytest.mark.parametrize("dist", CONTINUOUS + [Gamma(0.3, 5.0), Beta(0.5, 2.0)], ids=repr)
    @pytest.mark.parametrize("m", [1, 2, 7, 1000])
    def test_conditional_pdf_matches_the_block_boundaries(self, dist, m):
        # The block's two edges are read on their own; the density must equal
        # the one built from the whole partition, bit for bit, at the first,
        # an interior and the last block, on and next to every edge.
        w = block_boundaries(dist, m).boundaries
        finite = w[np.isfinite(w)]
        x = np.concatenate([finite, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf),
                            dist.quantile(np.linspace(0.01, 0.99, 41)), [-60.0, 60.0]])
        for s in sorted({1, (m + 1) // 2, m}):
            expected = np.where((x > w[s - 1]) & (x <= w[s]), m * dist.pdf(x), 0.0)
            np.testing.assert_array_equal(conditional_pdf(dist, m, s, x), expected)

    def test_conditional_pdf_evaluates_two_quantiles(self, monkeypatch):
        dist = Beta(2.0, 2.0)
        points = []

        def counted(p, quantile=dist.quantile):
            points.append(np.size(p))
            return quantile(p)

        monkeypatch.setattr(dist, "quantile", counted)
        for s in (1, 500_000, 1_000_000):
            conditional_pdf(dist, 1_000_000, s, 0.5)
        assert points == [1, 1, 1, 1]

    def test_conditional_quantile_rejects_nan(self):
        for p in (float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(DomainError) as info:
                conditional_quantile(Normal(), 4, 2, p)
            assert str(info.value) == (
                f"conditional quantile probability outside [0, 1]: {p!r}"
            )

    def test_block_index_validation(self):
        with pytest.raises(DomainError):
            conditional_cdf(Uniform01(), 4, 0, 0.5)
        with pytest.raises(DomainError):
            conditional_quantile(Uniform01(), 4, 5, 0.5)


class TestCustomAndFactory:
    def test_custom_quantile_only(self):
        tri = Custom(quantile=lambda p: np.sqrt(p), support=(0.0, 1.0))
        assert tri.quantile(0.25) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            tri.pdf(0.5)
        with pytest.raises(DomainError):
            tri.cdf(0.5)

    def test_custom_density_from_logpdf(self):
        tri = Custom(quantile=np.sqrt, logpdf=lambda x: np.log(2 * x))
        assert tri.pdf(0.5) == 1.0
        np.testing.assert_allclose(tri.pdf(np.array([0.25, 0.75])), [0.5, 1.5], rtol=1e-15)
        with pytest.raises(DomainError, match="no density function"):
            Custom(quantile=np.sqrt).pdf(0.5)
        with pytest.raises(DomainError, match="no density function"):
            Custom(quantile=np.sqrt).logpdf(0.5)

    def test_factory_rejects_string_params(self):
        for params in ("12", b"12", ""):
            with pytest.raises(DomainError, match="must be a list of numbers"):
                distribution_from_name("normal", params)
            with pytest.raises(DomainError, match="must be a list of numbers"):
                ExperimentConfig("qq_export", dist="normal", params=params)

    def test_custom_full(self):
        tri = Custom(
            quantile=lambda p: np.sqrt(p),
            pdf=lambda x: 2 * x,
            cdf=lambda x: np.clip(x, 0, 1) ** 2,
            support=(0.0, 1.0),
        )
        p = np.linspace(0.01, 0.99, 31)
        np.testing.assert_allclose(tri.cdf(tri.quantile(p)), p, atol=1e-12)

    def test_factory_builds_each_family(self):
        assert distribution_from_name("uniform").name == "uniform"
        assert distribution_from_name("normal", (1, 2)).params() == {"mu": 1, "sigma": 2}
        assert distribution_from_name("beta", (2, 3)).params() == {"a": 2, "b": 3}
        assert distribution_from_name("gamma", (2, 5)).params() == {"shape": 2, "rate": 5}
        d = distribution_from_name("discrete", (0, 0.5, 1, 0.5))
        assert d.pdf(0.0) == pytest.approx(0.5)

    def test_factory_rejects_bad_input(self):
        with pytest.raises(DomainError):
            distribution_from_name("cauchy")
        with pytest.raises(DomainError):
            distribution_from_name("beta", (2,))
        with pytest.raises(DomainError):
            distribution_from_name("discrete", (0, 0.5, 1))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Normal(0, -1)
        with pytest.raises(DomainError):
            Beta(0, 1)
        with pytest.raises(DomainError):
            Gamma(2, 0)

    @pytest.mark.parametrize("build,args", [(Beta, (math.inf, 1)), (Beta, (1, math.inf)),
                                            (Gamma, (math.inf, 1)), (Gamma, (2, math.inf))])
    def test_infinite_parameters_are_named_in_the_message(self, build, args):
        with pytest.raises(DomainError, match=r"requires finite .* got .*inf"):
            build(*args)

    @pytest.mark.parametrize("build,args", [(Gamma, (2, 1e-308)), (Gamma, (0.3, 1e-320)),
                                            (Normal, (1e308, 1e308)), (Normal, (0, 1e308)),
                                            (Normal, (-1e308, 1e307))])
    def test_laws_whose_quantiles_overflow_are_rejected(self, build, args):
        # Q(2^-53) or Q(1 - 2^-53) passes the float64 maximum.  RuntimeWarnings
        # are errors here, so the constructor must also not warn.
        with pytest.raises(DomainError, match=r"beyond the float64 range: Q\(2\^-53\)"):
            build(*args)

    @pytest.mark.parametrize("args", [(1e15, 1), (2, 2e14), (math.nan, 1)])
    def test_beta_shapes_above_1e14_are_rejected(self, args):
        # scipy's betaincinv returns NaN for some shapes from 1e15 on.
        with pytest.raises(DomainError, match=r"^beta requires finite a and b in \(0, 1e\+14\]"):
            Beta(*args)

    @pytest.mark.parametrize("build,args", [(Beta, (1e-310, 2)), (Beta, (2, 5e-324)),
                                            (Gamma, (1e-310, 1)), (Gamma, (1e306, 1)),
                                            (Gamma, (9.2e307, 2.2e16))])
    def test_laws_whose_density_normaliser_overflows_are_rejected(self, build, args):
        # Subnormal shapes make scipy's betaln/gammaln inf, and huge gamma
        # shapes overflow; the constructor must not warn either.
        with pytest.raises(DomainError, match="density normaliser beyond the float64 range"):
            build(*args)

    @pytest.mark.parametrize("dist", [Beta(1e14, 1e14), Beta(2.3e-308, 1e14), Gamma(2.3e-308, 1),
                                      Gamma(2e305, 1)], ids=repr)
    def test_laws_at_the_edge_of_the_accepted_shapes_keep_finite_quantiles(self, dist):
        q = dist.quantile(np.array([2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]))
        assert np.all(np.isfinite(q)) and np.all(np.diff(q) >= 0)
        assert np.isfinite(dist.logpdf(q[1]))

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-300, np.array([0.5, 1e-310])])
    def test_normal_quantile_overflowing_below_two_to_the_minus_53_raises(self, p):
        # Q(p) = -3.8e308 at p = 5e-324 is beyond the float64 range; it is
        # named with its law, with no RuntimeWarning (an error here).
        with pytest.raises(DomainError, match=r"^Q\(\de-\d+\) of Normal\(mu=0.0, sigma=1e\+307\) "
                                              r"is beyond the float64 range$"):
            Normal(0, 1e307).quantile(p)

    def test_normal_quantile_below_two_to_the_minus_53_stays_finite_where_it_fits(self):
        assert Normal(0, 1e307).quantile(1e-30) == pytest.approx(-1.146e308, rel=1e-3)
        assert Normal(-1e308, 1e306).quantile(5e-324) == pytest.approx(-1.3847e308, rel=1e-4)
        assert Normal(0, 1).quantile(5e-324) == pytest.approx(-38.4674, rel=1e-5)

    @pytest.mark.parametrize("dist", [Gamma(2, 1e-300), Gamma(0.3, 1e-280), Normal(0, 1e307),
                                      Normal(-1e308, 1e306)], ids=repr)
    def test_laws_near_the_float64_maximum_keep_finite_quantiles(self, dist):
        q = dist.quantile(np.array([2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]))
        assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0)


# One law of each family, with the density at 0.5 a finite number.
NAN_LAWS = [
    Uniform01(),
    Normal(1, 2),
    Beta(2, 2),
    Beta(0.5, 1),
    Gamma(2, 1),
    Gamma(1, 3),
    Discrete([0.0, 0.5, 1.0], [0.2, 0.5, 0.3]),
    Custom(quantile=np.sqrt, pdf=lambda x: 2 * x, support=(0.0, 1.0)),
    Custom(quantile=np.sqrt, logpdf=lambda x: np.log(2 * x), support=(0.0, 1.0)),
]


@pytest.mark.parametrize("dist", NAN_LAWS, ids=repr)
@pytest.mark.parametrize("density", ["pdf", "logpdf", "conditional_pdf"])
def test_density_is_nan_at_nan(dist, density):
    f = {"pdf": dist.pdf, "logpdf": dist.logpdf,
         "conditional_pdf": lambda x: conditional_pdf(dist, 4, 2, x)}[density]
    assert math.isnan(f(math.nan))
    out = f(np.array([math.nan, 0.5, math.nan]))
    assert out.dtype == np.float64
    assert np.isnan(out).tolist() == [True, False, True]
    assert out[1] == f(0.5)
