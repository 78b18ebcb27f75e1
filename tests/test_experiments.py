"""Experiment harness: reports, artifact tables, determinism and the
stratification-ordering property of sorted uniforms."""

import csv
import io
import json
import math
import struct
import subprocess
import sys
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qstrat import experiments
from qstrat.cli import main
from qstrat.distributions import distribution_from_name
from qstrat.errors import DomainError
from qstrat.experiments import (
    _BLOCK_ROWS,
    _MAX_PERIOD,
    _mean_se_z,
    _period,
    ExperimentConfig,
    ExperimentResult,
    Table,
    config_from_mapping,
    render_chunks,
    report_to_json,
    rows_to_csv,
    run_experiment,
    run_importance_study,
    run_moment_check,
    run_mse_grid,
    run_qq_export,
    run_spacing_check,
)
from qstrat.sampling import (
    iid_uniform_batches,
    lqs_uniform_batches,
    qs_uniform_batches,
    sample,
    uniforms,
)
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

    def test_equal_spacings_have_zero_z(self, monkeypatch):
        # Every replicate the same points 1/8 apart (exact in binary): each
        # spacing's mean has zero SE, which reads as z = 0, as in the other
        # experiments' rows.
        monkeypatch.setattr("qstrat.experiments._uniform_batches",
                            lambda method, c, reps: np.tile(np.arange(1, c.m + 1) / 8, (reps, 1)))
        result = run_spacing_check(cfg(experiment="spacing_check", m=5, ell=(1, 2),
                                       replicates=10))
        for row in result.rows:
            assert (row["mean_std_error"], row["mean_z"]) == (0.0, 0.0)


@pytest.mark.parametrize("values,theory", [(np.array([0.1, 0.4, 0.2, 0.9]), 0.5),
                                           (np.arange(7.0), 2.0), (np.full(5, 0.25), 0.5)])
def test_mean_se_z(values, theory):
    mean, se, z = _mean_se_z(values, theory)
    assert mean == values.mean()
    assert se == values.std(ddof=1) / math.sqrt(values.size)
    assert z == ((mean - theory) / se if se > 0 else 0.0)
    assert all(type(v) is float for v in (mean, se, z))


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()`` in bytes, above what was traced
    when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestOneBatchAtATime:
    """The bulk checks free each method's batch before the next is drawn,
    so each peaks at its heaviest generator's peak plus a few arrays of one
    value per replicate.  Each check runs once untraced first, so imports
    and caches are not counted."""

    REPS = 20_000

    def check_peak(self, **kwargs):
        run_experiment(cfg(**kwargs, replicates=100, seed=1))
        return traced_peak(lambda: run_experiment(cfg(**kwargs, replicates=self.REPS, seed=2)))

    def test_moment_check_holds_one_batch(self):
        generator = traced_peak(
            lambda: uniforms("lqs", (18, 9, 3), self.REPS, np.random.default_rng(0)))
        peak = self.check_peak(experiment="moment_check", m=30, layers=(18, 9, 3))
        # Per replicate: the mean, sum, mean square and pair estimate, and
        # their temporaries; 8 float64 arrays.
        assert peak <= generator + 8 * 8 * self.REPS

    def test_moment_check_with_layers_peaks_as_iid(self):
        # No bulk batch builds a layer index, so the LQS batch peaks at its
        # 8-byte output, as IID does, plus one row block of its QS layers
        # (freed before the reductions run).  Measured: 4.0 arrays.
        generator = traced_peak(lambda: uniforms("iid", 30, self.REPS, np.random.default_rng(0)))
        peak = self.check_peak(experiment="moment_check", m=30, layers=(18, 9, 3))
        assert peak <= generator + 8 * 8 * self.REPS

    def test_spacing_check_holds_one_batch(self):
        generator = traced_peak(lambda: uniforms("qs", 30, self.REPS, np.random.default_rng(0)))
        peak = self.check_peak(experiment="spacing_check", m=30, ell=(1, 3, 5))
        # Per replicate and lag: the lower index, the row and column
        # indices, the two order statistics, the spacing, its squared error
        # and kstest's sorted copy and CDF values; 16 8-byte arrays.
        assert peak <= generator + 16 * 8 * self.REPS


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
        u, _ = lqs_uniform_batches((18, 9, 3), reps, rng)
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

    def test_mapping_must_name_its_experiment(self):
        with pytest.raises(DomainError, match='a config must name its "experiment"'):
            config_from_mapping({"m": 3})

    @pytest.mark.parametrize("path", [5, 2.5, True, b"x.csv", ["x.csv"]])
    def test_output_path_must_be_a_string(self, path):
        with pytest.raises(DomainError, match="output_path must be a string"):
            ExperimentConfig("mse_grid", output_path=path)
        assert ExperimentConfig("mse_grid", output_path="x.csv").output_path == "x.csv"

    def test_artifacts_are_byte_identical_across_runs(self):
        c = cfg(experiment="importance_study", example="b", m=30, replicates=40,
                seed=310)
        for fmt in ("csv", "json"):
            first = "".join(render_chunks(run_experiment(c), fmt))
            second = "".join(render_chunks(run_experiment(c), fmt))
            assert first == second

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
        assert "".join(render_chunks(run_experiment(c1), "csv")) != "".join(
            render_chunks(run_experiment(c2), "csv")
        )


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the package import time and only
    # run_spacing_check needs it, so importing qstrat must not load it.
    code = "import sys, qstrat; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Columnar rows and their renderers
# ---------------------------------------------------------------------------

# The dict-based renderers the columnar ones replaced, kept as the reference
# the artifacts must match byte for byte.

def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _reference_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_cell(row[col]) for col in header])
    return buf.getvalue()


def _reference_json(report: dict, rows: list[dict], include_rows: bool = True) -> str:
    payload = dict(report)
    if include_rows:
        payload["rows"] = rows
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reference_text(result: ExperimentResult, fmt: str) -> str:
    rows = list(result.rows)
    return _reference_csv(rows) if fmt == "csv" else _reference_json(result.report, rows)


SMALL_RUNS = {
    "moment_check": cfg(experiment="moment_check", m=5, layers=(3, 2), replicates=200,
                        seed=21),
    "qq_export_gamma": cfg(experiment="qq_export", dist="gamma", params=(2, 5), m=6,
                           layers=(4, 2), replicates=3, seed=22),
    "qq_export_normal": cfg(experiment="qq_export", dist="normal", params=(0.0, 1.0), m=5,
                            replicates=2, seed=23),
    "mse_grid": cfg(experiment="mse_grid", m=4),
    # 10,100 rows: many row groups, with free float and int list columns.
    "mse_grid_m100": cfg(experiment="mse_grid", m=100),
    "spacing_check": cfg(experiment="spacing_check", m=6, ell=(1, 2), replicates=300,
                         seed=24),
    "importance_study_a": cfg(experiment="importance_study", example="a", m=8,
                              layers=(5, 3), replicates=5, seed=25),
    "importance_study_b": cfg(experiment="importance_study", example="b", m=8,
                              replicates=5, seed=26),
}

NAN = float("nan")
# Every kind of cell the renderers treat apart, in columns of 8 rows.
ODD_COLUMNS = {
    "float": [0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, NAN, 0.1],
    "zeros": [0.0, -0.0] * 4,
    "tiled": [0.1, -2.5e-300, 1e300, 3.0] * 2,
    "tiled_special": [math.inf, -math.inf, float("nan"), float("nan")] * 2,
    "int": [0, -1, 2 ** 70, 7, 1, 0, 3, 10 ** 20],
    "bool": [True, False] * 4,
    "mixed": [None, True, 1, 1.0, "x", -0.0, NAN, 2 ** 64],
    "optional": [None, 3, "x", None, 1, "", None, 2],
    "text": ["plain", "a,b", 'say "hi"', "line\nbreak", "naïve", "日本語", "tab\t", ""],
    "np_float": [np.float64(v) for v in (0.5, -0.0, 1e-320, 2.0, 0.5, 7.25, -1.0, 0.0)],
    "nested": [[1, 2.5], {"b": 1, "a": [0.5, None]}, [], {}, [[]], "s", None, [NAN]],
    'quo"te%s': list(range(8)),
    "ключ": [1.5] * 8,
}


def _odd_result(columns=ODD_COLUMNS) -> ExperimentResult:
    report = {"experiment": "hand_made", "label": "é \"q\"", "values": [1, 2.5],
              "nested": {"rows": [], "x": None}}
    return ExperimentResult(report, Table(columns))


class TestRenderersMatchReference:
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_experiment_artifacts(self, name):
        result = run_experiment(SMALL_RUNS[name])
        rows = list(result.rows)
        assert rows_to_csv(result.rows) == _reference_csv(rows)
        assert rows_to_csv(rows) == _reference_csv(rows)
        assert report_to_json(result) == _reference_json(result.report, rows)
        assert report_to_json(result, include_rows=False) == _reference_json(
            result.report, rows, include_rows=False
        )

    @pytest.mark.parametrize("method,size", [("iid", ("--m", "9")), ("qs", ("--m", "9")),
                                             ("qs", ("--m", "300")),
                                             ("lqs", ("--layers", "2,3,4"))])
    def test_sample_csv(self, capsys, method, size):
        assert main(["sample", "--dist", "normal", "--params", "1,2", "--method", method,
                     *size, "--seed", "31"]) == 0
        out = capsys.readouterr().out
        layers = (2, 3, 4) if method == "lqs" else None
        batch = sample(distribution_from_name("normal", (1, 2)), method,
                       None if layers else int(size[1]), seed=31, layers=layers)
        rows = []
        for i in range(batch.m):
            row = {"index": i + 1, "block": int(batch.blocks[i]),
                   "uniform": float(batch.uniforms[i]), "value": float(batch.values[i])}
            if batch.layer_index is not None:
                row["layer"] = int(batch.layer_index[i])
            rows.append(row)
        assert out == _reference_csv(rows)

    def test_hand_made_table(self):
        result = _odd_result()
        rows = list(result.rows)
        assert rows_to_csv(result.rows) == _reference_csv(rows)
        assert report_to_json(result) == _reference_json(result.report, rows)
        assert report_to_json(result, include_rows=False) == _reference_json(
            result.report, rows, include_rows=False
        )
        # The same rows given as a list of dicts.
        from_list = ExperimentResult(result.report, rows)
        assert report_to_json(from_list) == report_to_json(result)
        assert rows_to_csv(rows) == rows_to_csv(result.rows)

    def test_each_odd_column_alone(self):
        for name, values in ODD_COLUMNS.items():
            result = _odd_result({name: values})
            rows = list(result.rows)
            assert rows_to_csv(result.rows) == _reference_csv(rows), name
            assert report_to_json(result) == _reference_json(result.report, rows), name

    @pytest.mark.parametrize("table", [Table(), Table({"a": [], "b": []})])
    def test_empty_table(self, table):
        result = ExperimentResult({"experiment": "empty", "n_rows": 0}, table)
        assert rows_to_csv(table) == "" == rows_to_csv([])
        assert report_to_json(result) == _reference_json(result.report, [])
        assert report_to_json(result, include_rows=False) == _reference_json(
            result.report, [], include_rows=False
        )

    @pytest.mark.parametrize("columns,where", [
        ({"label": ["ok", "a\0b", "ok"], "n": [1, 2, 3]}, "column 'label'"),
        ({"mixed": ["x\0", 1]}, "column 'mixed'"),
        ({"a\0b": [1.5]}, "a column name"),
    ])
    def test_csv_rejects_nul(self, columns, where):
        # Python 3.10's csv module raises its own error on NUL and 3.11+
        # writes it unquoted; the renderer raises DomainError on both.
        with pytest.raises(DomainError, match=f"NUL character in {where}"):
            rows_to_csv(Table(columns))

    @pytest.mark.parametrize("fmt,head,bad,match", [
        ("csv", "ok", "\0", "NUL character in column 'label'"),
        ("csv", 0, "big", "column 'label' holds an int of more than"),
        ("json", 0, "big", "column 'label' holds an int of more than"),
        ("csv", "ok", "-big", "column 'label' holds an int of more than"),
        ("json", "ok", "-big", "column 'label' holds an int of more than"),
    ])
    def test_render_chunks_raises_before_it_yields(self, fmt, head, bad, match):
        # The bad cell is in the last row group, after cells like ``head``:
        # every column is planned when render_chunks is called, not when its
        # chunks are read.  "big" has one digit more than the interpreter
        # converts to str.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if bad != "\0" and not limit:
            pytest.skip("this interpreter converts ints of any length to str")
        cell = {"\0": "\0", "big": 10 ** limit, "-big": -10 ** limit}[bad]
        columns = {"n": range(2 * _BLOCK_ROWS + 1), "label": [head] * (2 * _BLOCK_ROWS) + [cell]}
        with pytest.raises(DomainError, match=match):
            render_chunks(_odd_result(columns), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ints_at_the_digit_limit_render(self, fmt):
        # An int of exactly the limit's digits is text, in an int column and
        # in a mixed one; with no limit, 4300 digits (the default) renders.
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        top = 10 ** digits - 1
        result = _odd_result({"int": [top, -top, 1], "mixed": ["x", -top, top]})
        assert "".join(render_chunks(result, fmt)) == _reference_text(result, fmt)

    @pytest.mark.parametrize("fmt,around", [("csv", 1), ("json", 2)])
    def test_render_chunks_are_the_header_row_blocks_and_tail(self, fmt, around):
        n = 2 * _BLOCK_ROWS + 3
        result = _odd_result(_block_table(n))
        chunks = list(render_chunks(result, fmt))
        assert len(chunks) == around + 3
        assert "".join(chunks) == _reference_text(result, fmt)


def _block_table(n: int) -> dict[str, list]:
    """Columns of n rows with every kind of cell the renderers plan apart."""
    rng = np.random.default_rng(n)
    tile = [0.1, -0.0, 2.5e-300, 0.0, 1e300, -7.0]
    text = ["plain", "a,b", 'say "hi"', "line\nbreak", "", "ok"]
    special = [1.5, math.inf, -2.0, math.nan, -math.inf, 0.0, -0.0]
    return {
        "distinct": rng.standard_normal(n).tolist(),
        "tiled": [tile[i % len(tile)] for i in range(n)],
        "tiled_nonzero": [tile[i % 3 * 2] for i in range(n)],
        "int": rng.integers(-10 ** 6, 10 ** 6, n).tolist(),
        "zeros": [0.0, -0.0] * (n // 2) + [0.0] * (n % 2),
        "text": [text[i % len(text)] for i in range(n)],
        "plain_text": ["iid", "qs", "lqs"] * (n // 3) + ["iid"] * (n % 3),
        "non_finite": [special[i % len(special)] for i in range(n)],
    }


def _assert_same(text: str, reference: str, label: str = ""):
    """text == reference, quoting the first difference, not a full diff of
    two long texts."""
    if text != reference:
        i = next((i for i, pair in enumerate(zip(text, reference)) if len(set(pair)) > 1),
                 min(len(text), len(reference)))
        pytest.fail(f"{label} texts of {len(text)} and {len(reference)} characters differ at {i}: "
                    f"{text[i - 40:i + 40]!r} != {reference[i - 40:i + 40]!r}")


class TestRenderersAcrossBlocks:
    """Tables on both sides of a block boundary of the row templates."""

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    def test_mixed_table(self, n):
        result = _odd_result(_block_table(n))
        rows = list(result.rows)
        assert len(rows) == n
        _assert_same(rows_to_csv(result.rows), _reference_csv(rows))
        _assert_same(report_to_json(result), _reference_json(result.report, rows))
        _assert_same(report_to_json(result, include_rows=False),
                     _reference_json(result.report, rows, include_rows=False))

    @pytest.mark.parametrize("n", [_BLOCK_ROWS, 3 * _BLOCK_ROWS + 7])
    def test_each_column_alone(self, n):
        for name, values in _block_table(n).items():
            result = _odd_result({name: values})
            rows = list(result.rows)
            _assert_same(rows_to_csv(result.rows), _reference_csv(rows), name)
            _assert_same(report_to_json(result), _reference_json(result.report, rows), name)

    def test_qq_export_of_twelve_thousand_rows(self):
        result = run_experiment(cfg(experiment="qq_export", dist="gamma", params=(2, 5),
                                    m=200, layers=(120, 50, 30), replicates=20, seed=27))
        rows = list(result.rows)
        assert len(rows) == 12_000
        _assert_same(rows_to_csv(result.rows), _reference_csv(rows))
        _assert_same(report_to_json(result), _reference_json(result.report, rows))
        _assert_same(report_to_json(result, include_rows=False),
                     _reference_json(result.report, rows, include_rows=False))


def _group_size(period: int) -> int:
    return period * -(-_BLOCK_ROWS // period)


def _tiled(cells: Sequence, n: int) -> list:
    return [cells[i % len(cells)] for i in range(n)]


class TestGroupRenderer:
    """Rows rendered in groups of whole periods, with the columns that repeat
    from group to group baked into the group's template.  Each table's bytes
    are the reference renderers'; a baked column is planned a group slice at
    a time, so these also show that a slice's plan gives the whole column's
    text."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """Column name -> the lengths of the cells planned for it, per format."""
        lengths = {"csv": {}, "json": {}}

        def spy(fmt, plan):
            def traced(name, kinds, values, *args):
                lengths[fmt].setdefault(name, []).append(len(values))
                return plan(name, kinds, values, *args)
            return traced

        monkeypatch.setattr(experiments, "_csv_plan", spy("csv", experiments._csv_plan))
        monkeypatch.setattr(experiments, "_json_plan", spy("json", experiments._json_plan))
        return lengths

    def assert_reference(self, columns):
        result = ExperimentResult({"experiment": "grouped"}, Table(columns))
        rows = list(result.rows)
        _assert_same(rows_to_csv(result.rows), _reference_csv(rows), "csv")
        _assert_same(report_to_json(result), _reference_json(result.report, rows), "json")

    @pytest.mark.parametrize("period", [1, 7, 1000, 1024, 1500])
    def test_int64_tiled_columns(self, planned, period):
        size = _group_size(period)
        n = 4 * size
        rng = np.random.default_rng(period)
        text = ["iid", "a,b", "%", "%s"]
        columns = {
            "sample": rng.standard_normal(n),
            "k": np.resize(np.arange(1, period + 1, dtype=np.int64), n),
            "target": np.resize(rng.standard_normal(period), n),
            "label": _tiled(text, period) * (n // period),
            "count": rng.integers(-10 ** 6, 10 ** 6, n),
        }
        assert _period(columns.values()) == period
        self.assert_reference(columns)
        for lengths in planned.values():
            assert lengths["sample"] == [n] and lengths["count"] == [n]
            # Baked: planned for the first group only, and for CSV the
            # label's distinct cells, checked for NUL when rendering starts.
            assert lengths["k"] == [size] and lengths["target"] == [size]
        assert planned["json"]["label"] == [size]
        assert planned["csv"]["label"] == [min(period, len(text)), size]

    def test_period_must_hold_throughout(self):
        k = np.resize(np.arange(1, 11, dtype=np.int64), 5000)
        broken = k.copy()
        broken[-1] = 0
        assert _period([broken, k]) == 10
        assert _period([broken]) == 1 == _period([k.astype(np.float64), list(k)])
        assert _period([np.arange(5000, dtype=np.int64)]) == 1
        long = np.resize(np.arange(_MAX_PERIOD + 1, dtype=np.int64), 2 * _MAX_PERIOD + 2)
        assert _period([long]) == 1

    @pytest.mark.parametrize("extra", [1, 999, 1999])
    def test_length_not_whole_groups(self, planned, extra):
        n = 3 * 2000 + extra
        rng = np.random.default_rng(extra)
        columns = {"k": np.resize(np.arange(1, 1001, dtype=np.int64), n),
                   "target": np.resize(rng.standard_normal(1000), n),
                   "sample": rng.standard_normal(n)}
        self.assert_reference(columns)
        # The short last group gets a template of its own.
        assert planned["csv"]["target"] == [2000, extra]

    def test_tiled_float_that_changes_at_one_boundary(self, planned):
        # As qq_export's targets do from one method to the next.
        rng = np.random.default_rng(3)
        per_method = 3 * 2000
        targets = [np.tile(rng.standard_normal(1000), per_method // 1000) for _ in range(2)]
        n = 2 * per_method
        columns = {"method": ["iid"] * per_method + ["qs"] * per_method,
                   "k": np.resize(np.arange(1, 1001, dtype=np.int64), n),
                   "theoretical_quantile": np.concatenate(targets),
                   "sample_order_stat": rng.standard_normal(n)}
        self.assert_reference(columns)
        for lengths in planned.values():
            assert lengths["theoretical_quantile"] == [2000, 2000]
            assert lengths["k"] == [2000, 2000]
            assert lengths["sample_order_stat"] == [n]

    def test_baked_text_with_percent_comma_quote_and_newline(self, planned):
        text = ["%", "%s", "%%d", "a,b", 'say "hi"', "line\nbreak", ""]
        n = 5 * _group_size(7)
        columns = {"k": np.resize(np.arange(7, dtype=np.int64), n),
                   "te%xt": _tiled(text, n),
                   "%d": np.resize([0.5, -1e-300, 2.0, 1e300, 0.0, -0.0, 3.0], n)}
        self.assert_reference(columns)
        assert planned["json"]["te%xt"] == [_group_size(7)]

    def test_lone_baked_csv_column_with_empty_cells(self, planned):
        n = 3 * _BLOCK_ROWS + 5
        for cells in ([""] * n, [""] * (2 * _BLOCK_ROWS) + ['x"'] * _BLOCK_ROWS + [""] * 5):
            table = Table({"s": cells})
            text = rows_to_csv(table)
            _assert_same(text, _reference_csv(list(table)))
            assert text.endswith('""\n' * 5)
        # Rebuilt where x" replaces the empty cells, and for the short group.
        assert planned["csv"]["s"] == [1, _BLOCK_ROWS, 5, 2, _BLOCK_ROWS, _BLOCK_ROWS, 5]

    def test_signed_zeros_alternating_by_group(self, planned):
        size = _group_size(10)
        n = 6 * size
        zeros = np.repeat(np.resize([0.0, -0.0], 6), size)
        columns = {"k": np.resize(np.arange(10, dtype=np.int64), n), "zero": zeros,
                   "zero_list": zeros.tolist()}
        self.assert_reference(columns)
        # 0.0 == -0.0, but their bits differ: the column is never baked.
        assert planned["csv"]["zero"] == [n] == planned["csv"]["zero_list"]
        # Baked, but rebuilt at the sign change: a compare by value would not.
        flipped = np.repeat([0.0] * 3 + [-0.0] * 3, size)
        self.assert_reference({"k": columns["k"], "zero": flipped})
        assert planned["json"]["zero"][-2:] == [size, size]

    def test_nan_and_inf_in_a_baked_json_column(self, planned):
        n = 4 * _group_size(5)
        special = [math.nan, math.inf, -math.inf, 1.5, -0.0]
        columns = {"k": np.resize(np.arange(5, dtype=np.int64), n),
                   "special": np.resize(special, n), "listed": _tiled(special, n)}
        self.assert_reference(columns)
        assert planned["json"]["special"] == [_group_size(5)]
        assert planned["json"]["listed"] == [_group_size(5)]

    def test_list_mixing_true_and_1_is_never_baked(self, planned):
        size = _group_size(4)
        n = 4 * size
        for cells in ([True] * size + [1] * size + [True] * size + [1] * size,
                      [1] * size + [True] * (3 * size), [1.0] * size + [1] * (3 * size)):
            self.assert_reference({"k": np.resize(np.arange(4, dtype=np.int64), n),
                                   "flag": cells})
        assert planned["csv"]["flag"] == [n] * 3 == planned["json"]["flag"]

    def test_nul_in_last_group_of_baked_csv_column(self, planned):
        n = 3 * _BLOCK_ROWS + 2
        for label in (["ok"] * (n - 1) + ["a\0b"], ["ok"] * (n - _BLOCK_ROWS - 2)
                      + ["a\0b"] * (_BLOCK_ROWS + 2)):
            result = ExperimentResult({}, Table({"n": np.zeros(n, dtype=np.int64),
                                                 "label": label}))
            with pytest.raises(DomainError, match="NUL character in column 'label'"):
                render_chunks(result, "csv")
            assert report_to_json(result) == _reference_json({}, list(result.rows))
        # Only the distinct cells were planned, when render_chunks was called.
        assert planned["csv"]["label"] == [2, 2]

    @pytest.mark.parametrize("fmt,around", [("csv", 1), ("json", 2)])
    @pytest.mark.parametrize("period,n", [(1, 3 * _BLOCK_ROWS), (1000, 5 * 2000 + 3),
                                          (1500, 2 * 1500 + 700)])
    def test_one_chunk_per_group(self, fmt, around, period, n):
        size = _group_size(period)
        columns = {"k": np.resize(np.arange(period, dtype=np.int64), n),
                   "x": np.random.default_rng(n).standard_normal(n)}
        result = ExperimentResult({"experiment": "grouped"}, Table(columns))
        chunks = list(render_chunks(result, fmt))
        groups = -(-n // size)
        assert len(chunks) == groups + around
        rows = chunks[1:1 + groups]
        assert [chunk.count("\n" if fmt == "csv" else "}") for chunk in rows] == [
            min(size, n - start) for start in range(0, n, size)]
        assert "".join(chunks) == _reference_text(result, fmt)


class TestFloatColumns:
    """Float columns, tiled, distinct or special, render the reference's
    text over many row groups."""

    N = 4101

    def columns(self) -> dict[str, np.ndarray]:
        """Columns of N floats."""
        n = self.N
        rng = np.random.default_rng(29)
        tiled = {f"period_{p}": np.resize(rng.standard_normal(p), n) for p in (4, 292, 1000, 1024)}
        sparse = rng.standard_normal(n)
        sparse[::10] = 0.0
        return {
            **tiled,
            "distinct": rng.standard_normal(n),
            "mostly_distinct": sparse,
            "signed_zeros": np.resize([0.0, -0.0], n),
            "non_finite": np.resize([math.inf, -math.inf, math.nan, 1.5, -0.0], n),
        }

    def test_bytes_of_each_column(self):
        for name, values in self.columns().items():
            result = _odd_result({name: values})
            rows = list(result.rows)
            _assert_same(rows_to_csv(result.rows), _reference_csv(rows), name)
            _assert_same(report_to_json(result), _reference_json(result.report, rows), name)


def _typed(columns: dict) -> dict:
    """``columns`` with each column of ints that fit int64 as an int64 array
    and each column of floats (numpy's included) as a float64 array."""
    typed = dict(columns)
    for name, values in columns.items():
        kinds = set(map(type, values))
        if kinds == {int} and all(-2 ** 63 <= v < 2 ** 63 for v in values):
            typed[name] = np.array(values, dtype=np.int64)
        elif kinds <= {float, np.float64}:
            typed[name] = np.array(values, dtype=np.float64)
    return typed


class TestArrayColumns:
    """Columns given as numpy arrays render the bytes of their lists."""

    def assert_renders_like_lists(self, columns, arrays):
        listed, typed = _odd_result(columns), _odd_result(arrays)
        _assert_same(rows_to_csv(typed.rows), rows_to_csv(listed.rows))
        _assert_same(report_to_json(typed), report_to_json(listed))
        _assert_same(report_to_json(typed), _reference_json(typed.report, list(typed.rows)))

    def test_odd_columns(self):
        arrays = _typed(ODD_COLUMNS)
        assert sum(isinstance(v, np.ndarray) for v in arrays.values()) == 7
        self.assert_renders_like_lists(ODD_COLUMNS, arrays)
        for name, values in ODD_COLUMNS.items():
            self.assert_renders_like_lists({name: values}, {name: arrays[name]})

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    def test_block_tables(self, n):
        columns = _block_table(n)
        arrays = _typed(columns)
        assert arrays["int"].dtype == np.int64 and arrays["zeros"].dtype == np.float64
        self.assert_renders_like_lists(columns, arrays)
        for name, values in columns.items():
            self.assert_renders_like_lists({name: values}, {name: arrays[name]})

    def test_bool_and_str_arrays(self):
        columns = {"bool": ODD_COLUMNS["bool"], "text": ODD_COLUMNS["text"]}
        arrays = {name: np.array(values) for name, values in columns.items()}
        assert arrays["bool"].dtype == bool and arrays["text"].dtype.kind == "U"
        self.assert_renders_like_lists(columns, arrays)
        for name in columns:
            self.assert_renders_like_lists({name: columns[name]}, {name: arrays[name]})


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.integers(0, 2 ** 64 - 1).map(_float_from_bits))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072009e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(1.7976931348623157e308)
@example(0.1)
def test_percent_format_matches_format_spec(x):
    # The CSV renderer formats float columns with '%.9g' %; the artifacts
    # were defined by format(x, '.9g').
    assert "%.9g" % x == format(x, ".9g")


class TestTable:
    def table(self):
        return Table({"a": [1, 2, 3], "b": ["x", "y", "z"]})

    def test_length_indexing_and_iteration(self):
        t = self.table()
        assert isinstance(t, Sequence) and len(t) == 3
        assert t[0] == {"a": 1, "b": "x"}
        assert t[-1] == {"a": 3, "b": "z"} and t[-3] == t[0]
        assert list(t) == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3, "b": "z"}]
        assert {"a": 2, "b": "y"} in t and t.index({"a": 3, "b": "z"}) == 2
        assert list(t.columns) == ["a", "b"]

    def test_index_past_either_end(self):
        t = self.table()
        for index in (3, 4, -4):
            with pytest.raises(IndexError):
                t[index]
        with pytest.raises(IndexError):
            Table()[0]

    def test_slices_are_tables(self):
        t = self.table()
        tail = t[1:]
        assert isinstance(tail, Table) and len(tail) == 2
        assert list(tail) == list(t)[1:]
        assert list(t[::-1]) == list(t)[::-1]
        assert len(t[5:]) == 0

    def test_rows_are_fresh_dicts(self):
        t = self.table()
        row = t[0]
        row["a"] = 99
        assert t[0] == {"a": 1, "b": "x"}

    def test_from_rows_takes_the_first_rows_header(self):
        t = Table.from_rows([{"b": 1, "a": 2}, {"a": 3, "b": 4}])
        assert list(t.columns) == ["b", "a"] and t.columns["a"] == [2, 3]
        assert len(Table.from_rows([])) == 0

    @pytest.mark.parametrize("render,match", [
        (lambda: rows_to_csv([{"a": 1}, {"b": 2}]), r"row 1 has the keys \['b'\]"),
        (lambda: rows_to_csv([{"a": 1}, 5]), "row 1 must be a dict, got int"),
        (lambda: rows_to_csv([[1, 2]]), "row 0 must be a dict, got list"),
        (lambda: report_to_json(ExperimentResult({}, [{"a": 1}, {"a": 2, "b": 3}])),
         r"row 1 has the keys \['a', 'b'\], where row 0 has \['a'\]"),
        (lambda: Table.from_rows([{"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 3}]),
         "row 2 has the keys"),
    ], ids=["other_key", "not_a_dict", "first_not_a_dict", "extra_key", "missing_key"])
    def test_from_rows_rejects_ragged_rows(self, render, match):
        with pytest.raises(DomainError, match=match):
            render()

    def test_array_columns_yield_python_values(self):
        t = Table({"i": np.arange(3, dtype=np.int64), "x": np.array([0.5, -0.0, 2.0]),
                   "b": np.array([True, False, True]), "s": ["a", "b", "c"]})
        assert t[1] == {"i": 1, "x": -0.0, "b": False, "s": "b"}
        for row in [*t, t[-1], *t[1:]]:
            assert [type(v) for v in row.values()] == [int, float, bool, str]
        assert isinstance(t[1:].columns["x"], np.ndarray)
        assert list(t[::-1]) == list(t)[::-1]

    def test_bad_columns_rejected(self):
        for array in (np.zeros((2, 2)), np.array(1.0)):
            with pytest.raises(DomainError, match="1-D"):
                Table({"a": array})
        with pytest.raises(DomainError, match="equal lengths"):
            Table({"a": [1, 2], "b": [1]})
        with pytest.raises(DomainError, match="strings"):
            Table({1: [1]})

    @pytest.mark.parametrize("column", [
        "abc", b"ab", {1.0, 2.0}, {"a": 1, "b": 2}, 3, 2.5, None, np.float64(1.0),
        (v for v in [1, 2]), iter([1, 2]), map(float, [1, 2]),
    ], ids=["str", "bytes", "set", "dict", "int", "float", "None", "numpy_scalar",
            "generator", "iterator", "map"])
    def test_column_that_is_no_sequence_rejected(self, column):
        with pytest.raises(DomainError, match="list, tuple, range or 1-D numpy array"):
            Table({"a": column})

    def test_tuple_and_range_columns_act_as_lists(self):
        n = 2 * _BLOCK_ROWS + 3
        floats = [0.5 * (i % 7) - 1.0 for i in range(n)]
        text = [("a", "b,c", "")[i % 3] for i in range(n)]
        listed = Table({"i": list(range(n)), "x": floats, "s": text})
        other = Table({"i": range(n), "x": tuple(floats), "s": tuple(text)})
        assert list(other) == list(listed) and list(other[5:9]) == list(listed[5:9])
        _assert_same(rows_to_csv(other), rows_to_csv(listed))
        _assert_same(report_to_json(ExperimentResult({}, other)),
                     report_to_json(ExperimentResult({}, listed)))
        _assert_same(rows_to_csv(other), _reference_csv(list(listed)))

    def test_result_rows_are_always_a_table(self):
        assert isinstance(ExperimentResult({}).rows, Table)
        result = ExperimentResult({}, [{"a": 1}, {"a": 2}])
        assert isinstance(result.rows, Table) and result.rows.columns == {"a": [1, 2]}
        for name in ("moment_check", "mse_grid", "spacing_check", "qq_export_normal",
                     "importance_study_a"):
            assert isinstance(run_experiment(SMALL_RUNS[name]).rows, Table)


class TestRowsMatchDictRows:
    """Rows of the columnar experiments against the row dicts the per-row
    loops built, at fixed seeds."""

    def test_qq_export(self):
        rows = run_experiment(cfg(experiment="qq_export", dist="gamma", params=(2, 5), m=4,
                                  layers=(3, 1), replicates=2, seed=11)).rows
        assert len(rows) == 24
        assert rows[0] == {"method": "iid", "replicate": 1, "k": 1,
                           "theoretical_quantile": 0.1648776618065969,
                           "sample_order_stat": 0.18115293027952725}
        assert rows[13] == {"method": "qs", "replicate": 2, "k": 2,
                            "theoretical_quantile": 0.261029780814719,
                            "sample_order_stat": 0.31805349303214697}
        assert rows[23] == {"method": "lqs", "replicate": 2, "k": 4,
                            "theoretical_quantile": 0.7214047072940364,
                            "sample_order_stat": 0.7857350180197689}
        assert rows.columns["k"].dtype == np.int64 == rows.columns["replicate"].dtype
        # Rows hold Python values, by index and by iteration.
        for row in [*rows, *(rows[i] for i in range(len(rows)))]:
            assert type(row["k"]) is int and type(row["replicate"]) is int
            assert type(row["sample_order_stat"]) is float

    def test_importance_study(self):
        rows = run_experiment(cfg(experiment="importance_study", example="b", m=6,
                                  layers=(4, 2), replicates=3, seed=12)).rows
        assert len(rows) == 9
        assert rows[0] == {"method": "iid", "replicate": 1, "estimate": 0.8555900217892036}
        assert rows[4] == {"method": "qs", "replicate": 2, "estimate": 0.8402797905052434}
        assert rows[8] == {"method": "lqs", "replicate": 3, "estimate": 0.8233210980124733}
        # Array columns, so the renderer reads the replicate count as the period.
        assert rows.columns["replicate"].dtype == np.int64
        assert rows.columns["estimate"].dtype == np.float64
        assert _period(rows.columns.values()) == 3
        for row in rows:
            assert [type(v) for v in row.values()] == [str, int, float]

    def test_moment_check(self):
        rows = run_experiment(cfg(experiment="moment_check", m=4, layers=(2, 2),
                                  replicates=50, seed=13)).rows
        assert len(rows) == 12
        assert rows[5] == {"method": "qs", "statistic": "variance",
                           "theory": 0.08333333333333333, "empirical": 0.08247096587469192,
                           "std_error": 0.0028474114719045283, "z": -0.3028601475938424,
                           "passed": True}
        assert rows[11] == {"method": "lqs", "statistic": "pair_correlation", "theory": -0.25,
                            "empirical": -0.23629945224317964,
                            "std_error": 0.02628015565307041, "z": 0.5213267355674761,
                            "passed": True}
