"""Closed-form results: worked values, reduction identities, exact rational
cross-checks and Monte-Carlo agreement."""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qstrat.errors import DomainError, PairUndefinedError
from qstrat.sampling import iid_uniform_batches, qs_uniform_batches
from qstrat.theory import (
    adj_factor,
    log_mse_gap_profile,
    lqs_uniform_moments,
    mse_asymptotic,
    mse_exact,
    order_stat_moments,
    qs_uniform_moments,
    quantile_targets,
    spacing_law,
)
from qstrat.theory import _quantile_target_arrays


class TestQsUniformMoments:
    def test_mean_and_variance_are_uniform_moments(self):
        mom = qs_uniform_moments(5)
        assert mom.mean == 0.5
        assert mom.variance == 1 / 12

    def test_correlation_values(self):
        assert qs_uniform_moments(2).pair_correlation == -0.75
        assert qs_uniform_moments(30).pair_correlation == pytest.approx(-31 / 900, abs=0)
        assert abs(qs_uniform_moments(10 ** 6).pair_correlation) <= 2e-6

    def test_covariance_correlation_consistency(self):
        for m in (2, 3, 10, 50):
            mom = qs_uniform_moments(m)
            assert mom.pair_correlation == pytest.approx(
                mom.pair_covariance / mom.variance, rel=1e-15
            )

    def test_pair_undefined_for_single_value(self):
        with pytest.raises(PairUndefinedError):
            qs_uniform_moments(1)
        with pytest.raises(DomainError):
            qs_uniform_moments(0)


class TestLqsUniformMoments:
    def test_three_layer_value_to_eight_decimals(self):
        corr = lqs_uniform_moments((18, 9, 3)).pair_correlation
        assert abs(corr - (-0.03390805)) <= 5e-9
        # Exact rational: -(30 - 1/2) / (30 * 29) = -59/1740.
        assert corr == float(Fraction(-59, 1740))

    def test_unit_layers_give_zero_correlation(self):
        assert lqs_uniform_moments((1,) * 12).pair_correlation == 0.0

    def test_single_layer_reduces_exactly_to_qs(self):
        for m in range(2, 51):
            assert lqs_uniform_moments((m,)) == qs_uniform_moments(m)

    def test_pair_undefined_for_total_one(self):
        with pytest.raises(PairUndefinedError):
            lqs_uniform_moments((1,))


class TestAdjFactor:
    def test_edge_values(self):
        assert adj_factor((30,)) == 1.0
        assert adj_factor((1,) * 7) == 0.0

    def test_three_layer_value(self):
        assert adj_factor((18, 9, 3)) == float(Fraction(885, 899))

    def test_chain_identity_random_layer_specs(self):
        # LQS correlation equals QS correlation times the adjustment, exactly
        # in rationals and to a few ulp in floats.
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            sizes = tuple(int(v) for v in rng.integers(1, 13, rng.integers(1, 6)))
            m = sum(sizes)
            if m < 2:
                continue
            checked += 1
            lhs = lqs_uniform_moments(sizes).pair_correlation
            rhs = qs_uniform_moments(m).pair_correlation * adj_factor(sizes)
            assert abs(lhs - rhs) <= 4 * np.spacing(abs(lhs)), sizes
            recip = sum(Fraction(1, mk) for mk in sizes)
            exact_lhs = Fraction(-(m - recip), m * (m - 1))
            exact_rhs = Fraction(-(m + 1), m * m) * Fraction(m * m - m * recip, m * m - 1)
            assert exact_lhs == exact_rhs

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sizes = tuple(int(v) for v in rng.integers(1, 9, rng.integers(1, 5)))
            if sum(sizes) < 2:
                continue
            assert 0.0 <= adj_factor(sizes) <= 1.0

    def test_needs_total_at_least_two(self):
        with pytest.raises(DomainError):
            adj_factor((1,))


class TestQuantileTargets:
    def test_values(self):
        assert quantile_targets(9, 5) == (0.5, 0.5)
        assert quantile_targets(10, 5) == (pytest.approx(5 / 11), 0.45)
        assert quantile_targets(1, 1) == (0.5, 0.5)

    def test_bias_identity_exact(self):
        # (k-1/2)/m - k/(m+1) equals (p - 1/2)/m and (p* - 1/2)/(m+1).
        for m in range(1, 51):
            for k in range(1, m + 1):
                pk = Fraction(k, m + 1)
                pk_star = Fraction(2 * k - 1, 2 * m)
                gap = pk_star - pk
                assert gap == (pk - Fraction(1, 2)) / m
                assert gap == (pk_star - Fraction(1, 2)) / (m + 1)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            quantile_targets(5, 0)
        with pytest.raises(DomainError):
            quantile_targets(5, 6)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 999, 1000, 1199, 4999, 5000, 65537])
    def test_array_form_has_the_same_bits(self, m):
        # The QQ export takes its plotting positions from the array form.
        arrays = _quantile_target_arrays(m)
        exact = np.array([quantile_targets(m, k) for k in range(1, m + 1)])
        for got, want in zip(arrays, exact.T):
            assert got.dtype == np.float64 and got.shape == (m,)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          np.ascontiguousarray(want).view(np.uint64))

    def test_array_form_checks_m(self):
        for m in (0, 2.5, "3"):
            with pytest.raises(DomainError):
                _quantile_target_arrays(m)


class TestOrderStatMoments:
    def test_iid_values(self):
        mean, var = order_stat_moments(10, 5, "iid")
        assert mean == pytest.approx(5 / 11)
        assert var == pytest.approx((5 / 11) * (6 / 11) / 12)

    def test_qs_variance_independent_of_k(self):
        for k in range(1, 11):
            assert order_stat_moments(10, k, "qs")[1] == 1 / 1200

    def test_single_uniform(self):
        assert order_stat_moments(1, 1, "iid") == (0.5, pytest.approx(1 / 12))

    def test_means_are_unbiased_for_targets(self):
        for m in range(1, 31):
            for k in range(1, m + 1):
                t_iid, t_qs = quantile_targets(m, k)
                assert order_stat_moments(m, k, "iid")[0] == t_iid
                assert order_stat_moments(m, k, "qs")[0] == t_qs

    def test_iid_matches_beta_law_moments(self):
        # Independent route: U_(k) of IID uniforms is Beta(k, m-k+1).
        for m in (3, 10, 17):
            for k in (1, m // 2 + 1, m):
                ref = stats.beta(k, m - k + 1)
                mean, var = order_stat_moments(m, k, "iid")
                assert mean == pytest.approx(ref.mean(), rel=1e-12)
                assert var == pytest.approx(ref.var(), rel=1e-12)


class TestMseExact:
    def test_worked_values(self):
        assert mse_exact(10, 5, "iid", "iid") == pytest.approx(0.0206612, abs=5e-8)
        assert mse_exact(10, 5, "iid", "qs") == pytest.approx(8.5399e-4, abs=5e-9)
        assert mse_exact(10, 5, "qs", "iid") == pytest.approx(0.0206818, abs=5e-8)
        assert mse_exact(10, 5, "qs", "qs") == 1 / 1200

    def test_methods_coincide_at_m_one(self):
        assert mse_exact(1, 1, "iid", "iid") == mse_exact(1, 1, "iid", "qs")
        assert mse_exact(1, 1, "qs", "iid") == mse_exact(1, 1, "qs", "qs")

    def test_all_forms_nonnegative(self):
        for m in range(1, 26):
            for k in range(1, m + 1):
                for target in ("iid", "qs"):
                    for method in ("iid", "qs"):
                        assert mse_exact(m, k, target, method) >= 0

    def test_variance_plus_squared_bias_route(self):
        # Independent algebraic route: MSE = variance + (mean - target)^2,
        # evaluated in exact rationals.
        for m in range(1, 21):
            for k in range(1, m + 1):
                pk = Fraction(k, m + 1)
                pk_star = Fraction(2 * k - 1, 2 * m)
                var_iid = pk * (1 - pk) / (m + 2)
                var_qs = Fraction(1, 12 * m * m)
                expect = {
                    ("iid", "iid"): var_iid,
                    ("iid", "qs"): var_qs + (pk_star - pk) ** 2,
                    ("qs", "iid"): var_iid + (pk - pk_star) ** 2,
                    ("qs", "qs"): var_qs,
                }
                for (target, method), frac in expect.items():
                    assert mse_exact(m, k, target, method) == float(frac), (m, k, target, method)

    def test_qs_dominates_for_m_at_least_two(self):
        for m in range(2, 21):
            for k in range(1, m + 1):
                for target in ("iid", "qs"):
                    assert mse_exact(m, k, target, "qs") < mse_exact(m, k, target, "iid")


class TestMseAsymptotic:
    def test_center_identities(self):
        for m in (1, 10, 500):
            assert mse_asymptotic(0.5, m, "iid", "qs") == pytest.approx(
                1 / (12 * m * m), rel=1e-15
            )
            assert mse_asymptotic(0.5, m, "iid", "iid") == pytest.approx(
                1 / (4 * m), rel=1e-15
            )

    def test_agrees_with_exact_at_large_m(self):
        m, k = 1000, 500
        for target in ("iid", "qs"):
            for method in ("iid", "qs"):
                exact = mse_exact(m, k, target, method)
                approx = mse_asymptotic(k / m, m, target, method)
                assert abs(exact - approx) / exact <= 0.01

    def test_rejects_boundary_phi(self):
        for phi in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                mse_asymptotic(phi, 10, "iid", "iid")

    def test_gap_profiles(self):
        assert log_mse_gap_profile(0.5, "qs") == pytest.approx(np.log(0.25))
        assert log_mse_gap_profile(0.5, "iid") == pytest.approx(
            np.log(0.25) - np.log(0.25)
        )
        # Profile plus log m reproduces the actual asymptotic log gap.
        for phi in (0.1, 0.3, 0.5, 0.8):
            for target in ("iid", "qs"):
                gap = np.log(mse_asymptotic(phi, 50, target, "iid")) - np.log(
                    mse_asymptotic(phi, 50, target, "qs")
                )
                const = np.log(3.0) if target == "iid" else np.log(12.0)
                assert gap == pytest.approx(
                    const + np.log(50) + log_mse_gap_profile(phi, target), rel=1e-12
                )


class TestSpacingLaw:
    def test_iid_beta_moments(self):
        law = spacing_law(10, 3, "iid")
        assert law.kind == "beta" and law.params == (3.0, 8.0)
        assert law.mean == pytest.approx(3 / 11)
        assert law.variance == pytest.approx(24 / 1452)

    def test_qs_triangular_moments(self):
        law = spacing_law(10, 3, "qs")
        assert law.kind == "triangular" and law.params == (0.2, 0.3, 0.4)
        assert law.mean == pytest.approx(0.3)
        assert law.variance == pytest.approx(1 / 600)

    def test_triangular_density_peak_is_m(self):
        law = spacing_law(10, 3, "qs")
        assert law.pdf(0.3) == pytest.approx(10.0)

    def test_laws_match_scipy_references(self):
        x = np.linspace(0, 1, 401)
        beta_law = spacing_law(12, 4, "iid")
        ref = stats.beta(4, 9)
        np.testing.assert_allclose(beta_law.cdf(x), ref.cdf(x), atol=1e-12)
        np.testing.assert_allclose(beta_law.pdf(x[1:-1]), ref.pdf(x[1:-1]), atol=1e-9)
        tri_law = spacing_law(12, 4, "qs")
        ref_tri = stats.triang(0.5, loc=3 / 12, scale=2 / 12)
        np.testing.assert_allclose(tri_law.cdf(x), ref_tri.cdf(x), atol=1e-12)
        np.testing.assert_allclose(tri_law.pdf(x), ref_tri.pdf(x), atol=1e-9)

    def test_moments_match_law_quadrature(self):
        for method in ("iid", "qs"):
            law = spacing_law(8, 2, method)
            x = np.linspace(0, 1, 200_001)
            pdf = law.pdf(x)
            mean = np.trapezoid(x * pdf, x)
            var = np.trapezoid((x - law.mean) ** 2 * pdf, x)
            assert mean == pytest.approx(law.mean, abs=1e-7)
            assert var == pytest.approx(law.variance, abs=1e-7)

    def test_lag_validation(self):
        with pytest.raises(DomainError):
            spacing_law(10, 0, "iid")
        with pytest.raises(DomainError):
            spacing_law(10, 10, "qs")


class TestMonteCarloAgreement:
    """Simulation agrees with the closed forms (fixed seeds, 3-sigma)."""

    def test_order_stat_variances_m10(self):
        m, reps = 10, 100_000
        rng = np.random.default_rng(101)
        u_iid = np.sort(iid_uniform_batches(m, reps, rng)[0], axis=1)
        u_qs = np.sort(qs_uniform_batches(m, reps, rng)[0], axis=1)
        for k in (1, 3, 5, 8, 10):
            for u, method in ((u_iid, "iid"), (u_qs, "qs")):
                mean_theory, var_theory = order_stat_moments(m, k, method)
                sq = (u[:, k - 1] - mean_theory) ** 2
                z = (sq.mean() - var_theory) / (sq.std(ddof=1) / np.sqrt(reps))
                assert abs(z) <= 3, (method, k, z)

    def test_spacing_distributions_pass_ks(self):
        m, reps = 10, 100_000
        rng = np.random.default_rng(102)
        u_iid = np.sort(iid_uniform_batches(m, reps, rng)[0], axis=1)
        u_qs = np.sort(qs_uniform_batches(m, reps, rng)[0], axis=1)
        for ell in (1, 3, 5):
            # k cycles over its range: the law must not depend on it.
            k = 1 + (np.arange(reps) % (m - ell))
            rows = np.arange(reps)
            for u, method in ((u_iid, "iid"), (u_qs, "qs")):
                d = u[rows, k + ell - 1] - u[rows, k - 1]
                law = spacing_law(m, ell, method)
                _, p_value = stats.kstest(d, law.cdf)
                assert p_value > 0.01, (method, ell, p_value)

    def test_qs_spacing_variance_understates_iid(self):
        # Stratification shrinks spacing variance by an order of magnitude.
        for ell in (1, 3, 5):
            assert spacing_law(10, ell, "qs").variance < spacing_law(10, ell, "iid").variance
