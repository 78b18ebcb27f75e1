"""Experiment harness: reports, artifact tables, determinism and the
stratification-ordering property of sorted uniforms."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qstrat.errors import DomainError
from qstrat.experiments import (
    ExperimentConfig,
    config_from_mapping,
    render_artifact,
    report_to_json,
    rows_to_csv,
    run_experiment,
    run_importance_study,
    run_moment_check,
    run_mse_grid,
    run_qq_export,
    run_spacing_check,
)
from qstrat.sampling import iid_uniform_batches, lqs_uniform_batches, qs_uniform_batches
from qstrat.theory import quantile_targets


def cfg(**kwargs):
    return ExperimentConfig(**kwargs)


class TestMomentCheck:
    def test_qs_and_lqs_correlations_pass(self):
        result = run_moment_check(
            cfg(experiment="moment_check", m=30, layers=(18, 9, 3),
                replicates=20_000, seed=301)
        )
        assert result.report["all_passed"]
        by_key = {(r["method"], r["statistic"]): r for r in result.rows}
        assert by_key[("qs", "pair_correlation")]["theory"] == pytest.approx(-31 / 900)
        assert by_key[("lqs", "pair_correlation")]["theory"] == pytest.approx(-0.03390805, abs=5e-9)
        assert by_key[("iid", "pair_correlation")]["theory"] == 0.0
        assert abs(by_key[("iid", "pair_correlation")]["z"]) <= 4

    def test_every_row_carries_theory_empirical_se_z(self):
        result = run_moment_check(
            cfg(experiment="moment_check", m=5, replicates=2_000, seed=302)
        )
        for row in result.rows:
            assert {"theory", "empirical", "std_error", "z", "passed"} <= set(row)

    def test_iid_pair_correlation_near_zero_at_m2(self):
        result = run_moment_check(
            cfg(experiment="moment_check", m=2, replicates=100_000, seed=312)
        )
        row = next(r for r in result.rows
                   if r["method"] == "iid" and r["statistic"] == "pair_correlation")
        assert abs(row["empirical"]) <= 0.01

    def test_m_one_rejected(self):
        with pytest.raises(DomainError):
            run_moment_check(cfg(experiment="moment_check", m=1, replicates=10))


class TestQqExport:
    def test_row_count_three_methods(self):
        result = run_qq_export(
            cfg(experiment="qq_export", dist="normal", params=(0.0, 1.0), m=30,
                layers=(18, 9, 3), replicates=20, seed=303)
        )
        assert len(result.rows) == 3 * 20 * 30
        assert result.report["n_rows"] == len(result.rows)

    def test_single_point_batches(self):
        result = run_qq_export(
            cfg(experiment="qq_export", dist="uniform", m=1, replicates=5, seed=304)
        )
        assert len(result.rows) == 2 * 5 * 1

    def test_theoretical_quantiles_per_method(self):
        m = 10
        result = run_qq_export(
            cfg(experiment="qq_export", dist="uniform", m=m, replicates=2, seed=305)
        )
        for row in result.rows:
            t_iid, t_qs = quantile_targets(m, row["k"])
            expected = t_iid if row["method"] == "iid" else t_qs
            assert row["theoretical_quantile"] == pytest.approx(expected)

    def test_qs_rows_sorted_by_k_increase(self):
        result = run_qq_export(
            cfg(experiment="qq_export", dist="normal", params=(0.0, 1.0), m=8,
                replicates=3, seed=306)
        )
        qs_rows = [r for r in result.rows if r["method"] == "qs"]
        for rep in (1, 2, 3):
            stats_of_rep = [r["sample_order_stat"] for r in qs_rows if r["replicate"] == rep]
            assert stats_of_rep == sorted(stats_of_rep)


class TestMseGrid:
    def test_grid_shape_and_signs(self):
        result = run_mse_grid(cfg(experiment="mse_grid", m=20))
        per_target = sum(m for m in range(1, 21))
        assert len(result.rows) == 2 * per_target
        for row in result.rows:
            if row["m"] == 1:
                assert row["log_mse_diff"] == 0.0
            else:
                assert row["log_mse_diff"] > 0.0
        assert result.report["qs_dominates_for_m_ge_2"]

    def test_csv_has_nine_significant_digits(self):
        result = run_mse_grid(cfg(experiment="mse_grid", m=3))
        text = rows_to_csv(result.rows)
        line = text.splitlines()[1]
        assert line.split(",")[0] == "iid"
        value = line.split(",")[3]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9


class TestSpacingCheck:
    def test_passes_at_fixed_seed(self):
        result = run_spacing_check(
            cfg(experiment="spacing_check", m=10, ell=(1, 3, 5),
                replicates=20_000, seed=307)
        )
        assert result.report["all_passed"]
        kinds = {(r["method"], r["law"]) for r in result.rows}
        assert kinds == {("iid", "beta"), ("qs", "triangular")}
        qs_3 = next(r for r in result.rows if r["method"] == "qs" and r["ell"] == 3)
        assert qs_3["var_theory"] == pytest.approx(1 / 600)
        assert abs(qs_3["var_z"]) <= 3

    def test_lag_must_leave_room(self):
        with pytest.raises(DomainError):
            run_spacing_check(
                cfg(experiment="spacing_check", m=10, ell=(10,), replicates=100)
            )


class TestImportanceStudy:
    def test_small_study_structure(self):
        result = run_importance_study(
            cfg(experiment="importance_study", example="a", m=40,
                replicates=60, seed=308)
        )
        assert set(result.report["methods"]) == {"iid", "qs"}
        assert len(result.rows) == 2 * 60
        for method, summary in result.report["methods"].items():
            assert summary["std_err"] > 0
            assert abs(summary["z_vs_true"]) <= 4
        assert result.report["true_value"] == pytest.approx(-7 / 24)

    def test_unknown_example_rejected(self):
        with pytest.raises(DomainError):
            run_importance_study(
                cfg(experiment="importance_study", example="z", replicates=5)
            )


class TestSortedUniformAdherence:
    def test_lqs_sits_strictly_between_qs_and_iid(self):
        # Mean absolute deviation of sorted uniforms from their stratified
        # expected positions: QS < LQS < IID.
        m, reps = 30, 10_000
        targets = np.array([quantile_targets(m, k)[1] for k in range(1, m + 1)])
        rng = np.random.default_rng(309)
        mads = {}
        u, _ = iid_uniform_batches(m, reps, rng)
        mads["iid"] = np.abs(np.sort(u, axis=1) - targets).mean()
        u, _, _ = lqs_uniform_batches((18, 9, 3), reps, rng)
        mads["lqs"] = np.abs(np.sort(u, axis=1) - targets).mean()
        u, _ = qs_uniform_batches(m, reps, rng)
        mads["qs"] = np.abs(np.sort(u, axis=1) - targets).mean()
        assert mads["qs"] < mads["lqs"] < mads["iid"]


class TestConfigAndArtifacts:
    def test_layers_must_sum_to_m(self):
        with pytest.raises(DomainError):
            cfg(experiment="moment_check", m=30, layers=(18, 9, 4)).validate()

    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            cfg(experiment="qq_plot").validate()

    def test_replicate_floor(self):
        with pytest.raises(DomainError):
            cfg(experiment="moment_check", replicates=0).validate()

    def test_mapping_round_trip(self):
        mapping = {
            "experiment": "spacing_check",
            "m": 12,
            "ell": [2, 4],
            "replicates": 500,
            "seed": 9,
        }
        built = config_from_mapping(mapping)
        assert built.ell == (2, 4) and built.m == 12

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            config_from_mapping({"experiment": "mse_grid", "bogus": 1})

    def test_artifacts_are_byte_identical_across_runs(self):
        c = cfg(experiment="importance_study", example="b", m=30, replicates=40,
                seed=310)
        first = render_artifact(run_experiment(c), "csv")
        second = render_artifact(run_experiment(c), "csv")
        assert first == second
        j1 = render_artifact(run_experiment(c), "json")
        j2 = render_artifact(run_experiment(c), "json")
        assert j1 == j2

    def test_csv_format(self):
        result = run_importance_study(
            cfg(experiment="importance_study", example="a", m=10, replicates=3,
                seed=311)
        )
        lines = rows_to_csv(result.rows).splitlines()
        assert lines[0] == "method,replicate,estimate"
        assert len(lines) == 1 + 2 * 3

    def test_json_artifact_parses_and_includes_report(self):
        result = run_mse_grid(cfg(experiment="mse_grid", m=2))
        payload = json.loads(report_to_json(result))
        assert payload["experiment"] == "mse_grid"
        assert len(payload["rows"]) == 2 * 3

    def test_seed_changes_artifact(self):
        c1 = cfg(experiment="importance_study", example="a", m=20, replicates=10, seed=1)
        c2 = cfg(experiment="importance_study", example="a", m=20, replicates=10, seed=2)
        assert render_artifact(run_experiment(c1), "csv") != render_artifact(
            run_experiment(c2), "csv"
        )


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the package import time and only
    # run_spacing_check needs it, so importing qstrat must not load it.
    code = "import sys, qstrat; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
