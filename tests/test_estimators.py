"""Estimators: sample means, importance weights/estimates, replicate studies
and the first-order variance approximations."""

import numpy as np
import pytest
from scipy.integrate import quad

from qstrat.distributions import Beta, Gamma, Normal, Uniform01
from qstrat.errors import DomainError, EmptySampleError, ZeroProposalDensityError
from qstrat.estimators import (
    BENCHMARKS,
    ImportanceProblem,
    beta_log_integral,
    estimate_replicates,
    gamma_gaussian_integral,
    importance_estimate,
    importance_weight,
    mean_estimate,
    taylor_variance_approx,
)
from qstrat.sampling import (
    LayerSpec,
    qs_uniform_batches,
    sample_iid,
    sample_lqs,
    sample_qs,
    spawn_seed,
)

# Rows per chunk of the replicate engine at m = 100 is 16384 // 100 = 163.
ENGINE_CASES = [("iid", None), ("qs", None), ("lqs", (50, 30, 20))]


class TestMeanEstimate:
    def test_constant_function(self):
        assert mean_estimate([1.0, 2.0, -3.0], lambda x: np.full_like(x, 4.5)) == 4.5

    def test_identity_on_stratified_uniforms(self):
        ests = []
        for r in range(400):
            batch = sample_qs(Uniform01(), 20, seed=spawn_seed(61, r))
            assert np.all((batch.values > 0) & (batch.values < 1))
            ests.append(mean_estimate(batch.values, lambda x: x))
        ests = np.asarray(ests)
        se = ests.std(ddof=1) / np.sqrt(ests.size)
        assert abs(ests.mean() - 0.5) <= 4 * se

    def test_second_moment_of_stratified_normal(self):
        ests = [
            mean_estimate(sample_qs(Normal(0, 1), 100, seed=spawn_seed(62, r)).values,
                          lambda x: x * x)
            for r in range(1000)
        ]
        ests = np.asarray(ests)
        se = ests.std(ddof=1) / np.sqrt(ests.size)
        assert abs(ests.mean() - 1.0) <= 4 * se

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            mean_estimate([], lambda x: x)


class TestImportanceWeight:
    def test_beta_problem_closed_form(self):
        # Density ratio collapses to ln(x)/2 for this target/proposal pair.
        prob = beta_log_integral()
        assert importance_weight(1.0, prob) == 0.0
        assert importance_weight(np.exp(-1.0), prob) == pytest.approx(-0.5, abs=1e-12)
        x = np.linspace(0.05, 0.95, 37)
        np.testing.assert_allclose(
            importance_weight(x, prob), 0.5 * np.log(x), rtol=1e-12
        )

    def test_gamma_problem_closed_form(self):
        # Density ratio collapses to (25/36) exp(x (1 - x)).
        prob = gamma_gaussian_integral()
        assert importance_weight(1e-12, prob) == pytest.approx(25 / 36, rel=1e-9)
        x = np.linspace(0.05, 4.0, 41)
        np.testing.assert_allclose(
            importance_weight(x, prob), (25 / 36) * np.exp(x * (1 - x)), rtol=1e-12
        )

    def test_zero_numerator_wins_over_zero_proposal(self):
        prob = ImportanceProblem(Uniform01(), lambda x: np.ones_like(x), Normal(0, 1))
        w = importance_weight(np.array([0.5, 2.0]), prob)
        assert w[1] == 0.0  # f vanishes there, g does not matter
        prob2 = ImportanceProblem(Uniform01(), lambda x: x - x, Uniform01())
        assert importance_weight(0.3, prob2) == 0.0

    def test_zero_proposal_with_live_numerator_raises(self):
        prob = ImportanceProblem(Normal(0, 1), lambda x: np.ones_like(x), Uniform01())
        with pytest.raises(ZeroProposalDensityError):
            importance_weight(2.0, prob)

    def test_log_space_ratio_survives_tiny_proposal_density(self):
        # Far in the gamma tail both densities underflow-ish; the log-space
        # ratio stays finite and correct.
        prob = gamma_gaussian_integral()
        w = importance_weight(200.0, prob)
        assert np.isfinite(w)
        assert w == pytest.approx((25 / 36) * np.exp(200.0 * (1 - 200.0)), rel=1e-9)


class TestImportanceEstimate:
    def test_matched_proposal_constant_integrand_is_exact(self):
        prob = ImportanceProblem(
            Beta(2, 2), lambda x: np.full_like(x, 2.5), Beta(2, 2), 2.5
        )
        for method in ("iid", "qs"):
            assert importance_estimate(prob, 64, method, seed=3) == 2.5

    def test_self_normalization_identity(self):
        prob = ImportanceProblem(Gamma(2, 5), lambda x: np.ones_like(x), Gamma(2, 5), 1.0)
        for r in range(25):
            assert importance_estimate(prob, 10, "qs", seed=r) == 1.0

    def test_lqs_layers_must_sum_to_m(self):
        prob = beta_log_integral()
        with pytest.raises(DomainError):
            importance_estimate(prob, 30, "lqs", seed=1, layers=(18, 9, 4))
        with pytest.raises(DomainError):
            importance_estimate(prob, 30, "lqs", seed=1)
        est = importance_estimate(prob, 30, "lqs", seed=1, layers=(18, 9, 3))
        assert np.isfinite(est)

    def test_method_validation(self):
        with pytest.raises(DomainError):
            importance_estimate(beta_log_integral(), 10, "sobol", seed=1)


class TestReplicateStudies:
    def test_unbiasedness_both_benchmarks(self):
        for name, make in BENCHMARKS.items():
            prob = make()
            for method in ("iid", "qs"):
                study = estimate_replicates(prob, 100, method, 300, seed=71)
                se_mean = study.std_err / np.sqrt(study.replicates)
                assert abs(study.mean - prob.true_value) <= 4 * se_mean, (name, method)

    def test_variance_ordering_ratio_below_quarter(self):
        for make in BENCHMARKS.values():
            prob = make()
            iid = estimate_replicates(prob, 100, "iid", 300, seed=72)
            qs = estimate_replicates(prob, 100, "qs", 300, seed=72)
            assert qs.std_err < iid.std_err
            assert qs.std_err / iid.std_err < 0.25

    def test_rmse_decomposition(self):
        prob = beta_log_integral()
        study = estimate_replicates(prob, 50, "qs", 200, seed=73)
        bias = study.mean - prob.true_value
        R = study.replicates
        assert study.rmse ** 2 == pytest.approx(
            bias ** 2 + study.std_err ** 2 * (R - 1) / R, rel=1e-12
        )

    def test_replicates_are_reproducible(self):
        prob = gamma_gaussian_integral()
        s1 = estimate_replicates(prob, 40, "qs", 50, seed=74)
        s2 = estimate_replicates(prob, 40, "qs", 50, seed=74)
        np.testing.assert_array_equal(s1.estimates, s2.estimates)

    def test_no_true_value_means_no_rmse(self):
        prob = ImportanceProblem(Beta(2, 2), lambda x: x, Beta(2, 2))
        study = estimate_replicates(prob, 20, "iid", 10, seed=75)
        assert study.rmse is None and study.std_err > 0


def loop_estimate(prob, m, method, seed, layers):
    """Reference: one sample drawn by its sampler, then the mean of its weights."""
    if method == "lqs":
        batch = sample_lqs(prob.proposal, layers, seed=seed)
    elif method == "qs":
        batch = sample_qs(prob.proposal, m, seed=seed)
    else:
        batch = sample_iid(prob.proposal, m, seed=seed)
    return float(np.mean(importance_weight(batch.values, prob)))


class TestReplicateEngine:
    @pytest.mark.parametrize("example", sorted(BENCHMARKS))
    @pytest.mark.parametrize("method,layers", ENGINE_CASES)
    def test_chunked_estimates_equal_one_replicate_at_a_time(self, example, method, layers):
        # 200 replicates fill one chunk of 163 rows and part of a second.
        prob = BENCHMARKS[example]()
        study = estimate_replicates(prob, 100, method, 200, seed=91, layers=layers)
        seeds = [spawn_seed(91, r) for r in range(200)]
        single = [importance_estimate(prob, 100, method, seed=s, layers=layers)
                  for s in seeds]
        np.testing.assert_array_equal(study.estimates, single)
        reference = [loop_estimate(prob, 100, method, s, layers) for s in seeds]
        np.testing.assert_array_equal(study.estimates, reference)

    @pytest.mark.parametrize("method,layers", [("iid", None), ("qs", None),
                                               ("lqs", (9000, 5000, 2500))])
    def test_samples_above_chunk_size_run_one_row_per_chunk(self, method, layers):
        prob = beta_log_integral()
        study = estimate_replicates(prob, 16500, method, 3, seed=92, layers=layers)
        single = [importance_estimate(prob, 16500, method, seed=spawn_seed(92, r),
                                      layers=layers) for r in range(3)]
        np.testing.assert_array_equal(study.estimates, single)

    def test_lqs_layer_sum_checked_before_any_replicate(self):
        prob = beta_log_integral()
        with pytest.raises(DomainError, match="sum to m=100"):
            estimate_replicates(prob, 100, "lqs", 500, seed=93, layers=(50, 30, 21))
        with pytest.raises(DomainError, match="requires layer sizes"):
            estimate_replicates(prob, 100, "lqs", 500, seed=93)

    def test_sample_size_validated(self):
        with pytest.raises(DomainError):
            estimate_replicates(beta_log_integral(), 0, "qs", 5, seed=94)


class TestTaylorVariance:
    def test_zero_slope_gives_zero(self):
        assert taylor_variance_approx(0.0, 25, "iid") == 0.0
        assert taylor_variance_approx(0.0, 25, "qs") == 0.0

    def test_worked_values(self):
        assert taylor_variance_approx(1.0, 10, "iid") == pytest.approx(1 / 120)
        assert taylor_variance_approx(1.0, 10, "qs") == pytest.approx(1 / 12000)

    def test_ratio_is_inverse_m_squared(self):
        for m in (2, 7, 31):
            ratio = taylor_variance_approx(2.3, m, "qs") / taylor_variance_approx(2.3, m, "iid")
            assert ratio == pytest.approx(1 / m ** 2, rel=1e-12)

    def test_affine_composition_attains_the_approximation(self):
        # For an affine G the first-order result is exact: simulate the QS
        # sample-mean variance and compare.
        a, b, m, reps = 1.7, 0.4, 10, 100_000
        rng = np.random.default_rng(76)
        u, _ = qs_uniform_batches(m, reps, rng)
        ests = (a * u + b).mean(axis=1)
        var_hat = ests.var(ddof=1)
        assert var_hat <= taylor_variance_approx(a, m, "qs") * 1.01
        assert var_hat >= taylor_variance_approx(a, m, "qs") * 0.99

    def test_method_validation(self):
        with pytest.raises(DomainError):
            taylor_variance_approx(1.0, 10, "lqs")


class TestBenchmarkTruth:
    def test_beta_log_true_value_by_quadrature(self):
        val, err = quad(lambda x: x * np.log(x) * 6 * x * (1 - x), 0, 1)
        assert err < 1e-8
        assert val == pytest.approx(-7 / 24, abs=1e-8)
        assert beta_log_integral().true_value == -7 / 24

    def test_gamma_gaussian_true_value_by_quadrature(self):
        val, err = quad(lambda x: np.exp(-x * x) * 25 * x * np.exp(-5 * x), 0, np.inf)
        assert err < 1e-8
        assert gamma_gaussian_integral().true_value == pytest.approx(val, abs=1e-9)
        assert gamma_gaussian_integral().true_value == pytest.approx(0.8236078, abs=1e-6)

    def test_density_ratio_constant_is_25_over_36(self):
        # The importance function inherits rate^shape normalizers 25 and 36;
        # scaling by 125/36 instead would multiply the integral by 5.
        prob = gamma_gaussian_integral()
        g = prob.proposal
        val, _ = quad(lambda x: (25 / 36) * np.exp(x * (1 - x)) * g.pdf(x), 0, np.inf)
        assert val == pytest.approx(prob.true_value, abs=1e-8)


class TestSummaryLayers:
    @pytest.mark.parametrize("method", ["iid", "qs"])
    def test_no_layers_without_lqs(self, method):
        prob = beta_log_integral()
        assert estimate_replicates(prob, 10, method, 3, seed=1).layers is None
        with pytest.raises(DomainError):
            estimate_replicates(prob, 10, method, 3, seed=1, layers=(7, 7))

    def test_lqs_summary_keeps_its_layer_spec(self):
        study = estimate_replicates(beta_log_integral(), 10, "lqs", 3, seed=1, layers=[6, 4])
        assert study.layers == LayerSpec((6, 4))
