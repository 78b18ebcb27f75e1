"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (visible
with ``pytest -s``).  Statistical criteria run at fixed, pre-registered seeds
with the |z| <= 4 and KS/chi-square alpha = 0.01 conventions, so the whole
suite is deterministic.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from qstrat.distributions import Beta, Discrete, Gamma, Normal, Uniform01
from qstrat.estimators import (
    beta_log_integral,
    estimate_replicates,
    gamma_gaussian_integral,
)
from qstrat.experiments import ExperimentConfig, run_moment_check, run_spacing_check
from qstrat.sampling import (
    iid_uniform_batches,
    lqs_uniform_batches,
    qs_uniform_batches,
    spawn_seed,
    sample_qs,
)
from qstrat.theory import (
    adj_factor,
    lqs_uniform_moments,
    mse_exact,
    order_stat_moments,
    qs_uniform_moments,
    quantile_targets,
    spacing_law,
)

KS_ALPHA = 0.01
Z_LIMIT = 4.0


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")


def test_criterion_1_closed_form_oracle_suite():
    ok = True
    # Pairwise moments and the layered reduction chain.
    ok &= qs_uniform_moments(2).pair_correlation == -0.75
    ok &= qs_uniform_moments(30).pair_correlation == float(Fraction(-31, 900))
    ok &= abs(qs_uniform_moments(10 ** 6).pair_correlation) <= 2e-6
    lqs_corr = lqs_uniform_moments((18, 9, 3)).pair_correlation
    ok &= abs(lqs_corr - (-0.03390805)) <= 5e-9
    ok &= lqs_uniform_moments((30,)) == qs_uniform_moments(30)
    ok &= lqs_uniform_moments((1,) * 12).pair_correlation == 0.0
    ok &= adj_factor((30,)) == 1.0
    ok &= adj_factor((1,) * 7) == 0.0
    ok &= adj_factor((18, 9, 3)) == float(Fraction(885, 899))
    for layers in ((18, 9, 3), (5, 5), (7, 2, 1), (4, 4, 4, 4)):
        m = sum(layers)
        chain = qs_uniform_moments(m).pair_correlation * adj_factor(layers)
        lhs = lqs_uniform_moments(layers).pair_correlation
        ok &= abs(lhs - chain) <= 4 * np.spacing(abs(lhs))
    # Quantile targets and order-statistic moments.
    ok &= quantile_targets(9, 5) == (0.5, 0.5)
    ok &= quantile_targets(10, 5) == (5 / 11, 0.45)
    ok &= quantile_targets(1, 1) == (0.5, 0.5)
    ok &= order_stat_moments(10, 5, "iid") == (
        pytest.approx(5 / 11),
        pytest.approx((5 / 11) * (6 / 11) / 12),
    )
    ok &= all(order_stat_moments(10, k, "qs")[1] == 1 / 1200 for k in range(1, 11))
    ok &= order_stat_moments(1, 1, "iid") == (0.5, pytest.approx(1 / 12))
    # Exact MSE forms.
    ok &= mse_exact(10, 5, "iid", "iid") == pytest.approx(0.0206612, abs=5e-8)
    ok &= mse_exact(10, 5, "iid", "qs") == pytest.approx(8.5399e-4, abs=5e-9)
    ok &= mse_exact(10, 5, "qs", "iid") == pytest.approx(0.0206818, abs=5e-8)
    ok &= mse_exact(10, 5, "qs", "qs") == 1 / 1200
    ok &= mse_exact(1, 1, "iid", "iid") == mse_exact(1, 1, "iid", "qs")
    ok &= mse_exact(1, 1, "qs", "iid") == mse_exact(1, 1, "qs", "qs")
    # Spacing laws.
    beta_law = spacing_law(10, 3, "iid")
    tri_law = spacing_law(10, 3, "qs")
    ok &= beta_law.mean == pytest.approx(3 / 11) and beta_law.variance == pytest.approx(24 / 1452)
    ok &= tri_law.mean == pytest.approx(0.3) and tri_law.variance == pytest.approx(1 / 600)
    ok &= tri_law.pdf(0.3) == pytest.approx(10.0)
    report(1, "closed-form oracle suite", bool(ok))
    assert ok


def test_criterion_2_mse_dominance_grid():
    ok = True
    for m in range(2, 21):
        for k in range(1, m + 1):
            for target in ("iid", "qs"):
                ok &= mse_exact(m, k, target, "qs") < mse_exact(m, k, target, "iid")
    ok &= mse_exact(1, 1, "iid", "qs") == mse_exact(1, 1, "iid", "iid")
    ok &= mse_exact(1, 1, "qs", "qs") == mse_exact(1, 1, "qs", "iid")
    report(2, "MSE dominance for 2 <= m <= 20, equality at m = 1", bool(ok))
    assert ok


def test_criterion_3_empirical_moment_check():
    reps = 100_000
    worst = 0.0
    ok = True
    for m in (2, 10, 30):
        result = run_moment_check(
            ExperimentConfig(experiment="moment_check", m=m, replicates=reps, seed=1001)
        )
        row = next(
            r for r in result.rows
            if r["method"] == "qs" and r["statistic"] == "pair_correlation"
        )
        ok &= row["theory"] == pytest.approx(-(m + 1) / m ** 2, rel=1e-12)
        ok &= abs(row["z"]) <= Z_LIMIT
        worst = max(worst, abs(row["z"]))
    result = run_moment_check(
        ExperimentConfig(experiment="moment_check", m=30, layers=(18, 9, 3),
                         replicates=reps, seed=1002)
    )
    row = next(
        r for r in result.rows
        if r["method"] == "lqs" and r["statistic"] == "pair_correlation"
    )
    ok &= row["theory"] == pytest.approx(-0.03390805, abs=5e-9)
    ok &= abs(row["z"]) <= Z_LIMIT
    worst = max(worst, abs(row["z"]))
    report(3, "empirical QS/LQS pairwise correlations", bool(ok), f"worst |z|={worst:.2f}")
    assert ok


def test_criterion_4_marginal_law_check():
    laws = [
        ("uniform", Uniform01()),
        ("normal", Normal(0, 1)),
        ("beta", Beta(2, 2)),
        ("gamma", Gamma(2, 5)),
    ]
    discrete = Discrete([0.0, 1.0, 2.5], [0.2, 0.5, 0.3])
    reps = 300
    rng = np.random.default_rng(1003)
    checks = []
    for method in ("qs", "lqs"):
        if method == "qs":
            u, _ = qs_uniform_batches(30, reps, rng)
        else:
            u, _ = lqs_uniform_batches((18, 9, 3), reps, rng)
        pooled_u = u.ravel()
        for name, dist in laws:
            values = dist.quantile(pooled_u)
            _, p_value = stats.kstest(values, dist.cdf)
            checks.append((f"{method}/{name}", p_value > KS_ALPHA, p_value))
        values = discrete.quantile(pooled_u)
        counts = np.array([np.sum(values == x) for x in discrete.points])
        _, p_value = stats.chisquare(counts, discrete.probs * values.size)
        checks.append((f"{method}/discrete", p_value > KS_ALPHA, p_value))
    ok = all(passed for _, passed, _ in checks)
    min_p = min(p for _, _, p in checks)
    report(4, "pooled QS/LQS marginals pass KS and chi-square", ok, f"min p={min_p:.3f}")
    assert ok, checks


def test_criterion_5_order_statistics_and_spacings():
    m, reps = 10, 100_000
    rng = np.random.default_rng(1004)
    sorted_iid = np.sort(iid_uniform_batches(m, reps, rng)[0], axis=1)
    sorted_qs = np.sort(qs_uniform_batches(m, reps, rng)[0], axis=1)
    ok = True
    worst = 0.0
    for k in range(1, m + 1):
        for u, method in ((sorted_iid, "iid"), (sorted_qs, "qs")):
            mean_theory, var_theory = order_stat_moments(m, k, method)
            sq = (u[:, k - 1] - mean_theory) ** 2
            z = (sq.mean() - var_theory) / (sq.std(ddof=1) / np.sqrt(reps))
            ok &= abs(z) <= Z_LIMIT
            worst = max(worst, abs(z))
    spacing = run_spacing_check(
        ExperimentConfig(experiment="spacing_check", m=m, ell=(1, 3, 5),
                         replicates=reps, seed=1005)
    )
    ok &= spacing.report["all_passed"]
    min_p = min(r["ks_p_value"] for r in spacing.rows)
    report(5, "order-statistic variances and spacing laws", bool(ok),
           f"worst |z|={worst:.2f}, min KS p={min_p:.3f}")
    assert ok


def test_criterion_6_beta_log_benchmark_reproduction():
    prob = beta_log_integral()
    iid = estimate_replicates(prob, 100, "iid", 1000, seed=1006)
    qs = estimate_replicates(prob, 100, "qs", 1000, seed=1006)
    z_iid = abs(iid.mean - prob.true_value) / (iid.std_err / np.sqrt(iid.replicates))
    z_qs = abs(qs.mean - prob.true_value) / (qs.std_err / np.sqrt(qs.replicates))
    ok = (
        z_iid <= Z_LIMIT
        and z_qs <= Z_LIMIT
        and 0.017 <= iid.std_err <= 0.025
        and 0.0014 <= qs.std_err <= 0.0022
    )
    report(6, "x ln(x) Beta benchmark, m=100 x 1000 replicates", ok,
           f"stderr iid={iid.std_err:.5f}, qs={qs.std_err:.5f}")
    assert ok, (iid.mean, qs.mean, iid.std_err, qs.std_err)


def test_criterion_7_gamma_gaussian_benchmark_reproduction():
    prob = gamma_gaussian_integral()
    iid = estimate_replicates(prob, 100, "iid", 1000, seed=1007)
    qs = estimate_replicates(prob, 100, "qs", 1000, seed=1007)
    z_iid = abs(iid.mean - prob.true_value) / (iid.std_err / np.sqrt(iid.replicates))
    z_qs = abs(qs.mean - prob.true_value) / (qs.std_err / np.sqrt(qs.replicates))
    ok = (
        z_iid <= Z_LIMIT
        and z_qs <= Z_LIMIT
        and 0.0053 <= iid.std_err <= 0.0073
        and 0.0010 <= qs.std_err <= 0.0016
    )
    report(7, "exp(-x^2) Gamma benchmark, m=100 x 1000 replicates", ok,
           f"stderr iid={iid.std_err:.6f}, qs={qs.std_err:.6f}")
    assert ok, (iid.mean, qs.mean, iid.std_err, qs.std_err)


def test_criterion_8_quadrature_oracle_gates():
    # Raw-density quadrature, independent of the package's distributions.
    val_a, err_a = quad(lambda x: x * np.log(x) * 6.0 * x * (1.0 - x), 0, 1)
    val_b, err_b = quad(lambda x: np.exp(-x * x) * 25.0 * x * np.exp(-5.0 * x), 0, np.inf)
    ok = (
        err_a < 1e-8
        and err_b < 1e-8
        and abs(val_a - (-7 / 24)) <= 1e-6
        and abs(val_a - (-0.2916667)) <= 1e-6
        and abs(val_b - 0.8236078) <= 1e-6
        and abs(beta_log_integral().true_value - val_a) <= 1e-8
        and abs(gamma_gaussian_integral().true_value - val_b) <= 1e-8
    )
    report(8, "quadrature confirms both benchmark integrals", ok,
           f"a={val_a:.7f}, b={val_b:.7f}")
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "qstrat.cli", *args],
            capture_output=True, text=True, timeout=300,
        )

    ok = True
    # Identical stdout for a repeated sample command.
    r1 = run("sample", "--dist", "gamma", "--params", "2,5", "--m", "8",
             "--method", "lqs", "--layers", "4,3,1", "--seed", "77")
    r2 = run("sample", "--dist", "gamma", "--params", "2,5", "--m", "8",
             "--method", "lqs", "--layers", "4,3,1", "--seed", "77")
    ok &= r1.returncode == 0 and r1.stdout == r2.stdout
    # Byte-identical file artifacts for a repeated experiment.
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for f in (f1, f2):
        r = run("experiment", "--name", "spacing_check", "--m", "10",
                "--replicates", "2000", "--seed", "13", "--out", str(f))
        ok &= r.returncode == 0
    ok &= f1.read_bytes() == f2.read_bytes()
    # Replicate results depend only on (seed, index), not execution order,
    # so a parallel replicate fan-out cannot change the artifact.
    natural = [sample_qs(Uniform01(), 6, seed=spawn_seed(13, r)).uniforms
               for r in range(10)]
    for r in reversed(range(10)):
        again = sample_qs(Uniform01(), 6, seed=spawn_seed(13, r)).uniforms
        ok &= bool(np.array_equal(natural[r], again))
    report(9, "CLI artifacts byte-identical and schedule-independent", bool(ok))
    assert ok
