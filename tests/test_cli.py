"""CLI surface: subcommands, exit codes, artifact determinism and the
QSTRAT_SEED environment override."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrat.cli import main
from qstrat.distributions import Gamma
from qstrat.experiments import (
    _BLOCK_ROWS,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    Table,
    render_chunks,
    run_experiment,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSampleCommand:
    def test_deterministic_stdout(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "--dist", "uniform", "--m", "5",
                                 "--method", "qs", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "sample", "--dist", "uniform", "--m", "5",
                                 "--method", "qs", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "index,block,uniform,value"
        assert len(out1.splitlines()) == 6

    def test_lqs_produces_thirty_values(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--method", "lqs", "--m", "30",
                               "--layers", "18,9,3", "--seed", "3")
        assert code == 0
        assert len(out.splitlines()) == 31
        assert out.splitlines()[0] == "index,block,uniform,value,layer"

    def test_lqs_layer_sum_mismatch_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--method", "lqs", "--m", "30",
                                 "--layers", "18,9,4")
        assert code == 1
        assert out == ""
        assert "sum to 31" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--dist", "beta", "--params", "2,2",
                               "--m", "4", "--method", "iid", "--seed", "5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "iid" and len(payload["values"]) == 4
        assert payload["seed"] == 5

    def test_missing_m_for_qs_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--method", "qs")
        assert code == 1 and "--m" in err

    def test_bad_distribution_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--dist", "cauchy", "--m", "3")
        assert code == 1 and "cauchy" in err

    @pytest.mark.parametrize("params", ["2,1e-320", "0.3,1e-320"])
    def test_gamma_whose_quantiles_overflow_exits_one(self, capsys, params):
        code, out, err = run_cli(capsys, "sample", "--dist", "gamma", "--params", params,
                                 "--method", "qs", "--m", "3")
        assert code == 1 and out == ""
        assert "beyond the float64 range" in err

    def test_quantile_non_convergence_exits_two(self, capsys, monkeypatch):
        # A numerical failure inside a quantile is a runtime failure, not a
        # usage error: it reaches the CLI's catch-all branch and exits 2.
        def fail(self, p):
            raise RuntimeError("quantile inversion did not reach tolerance")

        monkeypatch.setattr(Gamma, "_quantile_inner", fail)
        code, out, err = run_cli(capsys, "sample", "--dist", "gamma", "--params", "2,1",
                                 "--method", "qs", "--m", "20", "--seed", "3")
        assert code == 2
        assert out == ""
        assert "did not reach tolerance" in err


class TestTheoryCommand:
    def test_layered_correlation_value(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--m", "30", "--layers", "18,9,3")
        assert code == 0
        payload = json.loads(out)
        corr = payload["lqs_moments"]["pair_correlation"]
        assert round(corr, 8) == -0.03390805
        assert payload["qs_moments"]["pair_correlation"] == pytest.approx(-31 / 900)
        assert payload["adjustment_factor"] == pytest.approx(885 / 899)

    def test_order_stat_and_spacing_sections(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--m", "10", "--k", "5", "--ell", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["quantile_targets"]["qs"] == 0.45
        assert payload["mse"]["method_qs_target_qs"] == pytest.approx(1 / 1200)
        assert payload["spacing_laws"]["qs"]["kind"] == "triangular"
        assert payload["spacing_laws"]["iid"]["params"] == [3.0, 8.0]

    def test_layer_mismatch_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--m", "31", "--layers", "18,9,3")
        assert code == 1 and "sum to 30" in err


class TestExperimentCommand:
    def test_file_artifact_byte_identical(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(capsys, "experiment", "--name", "importance_study",
                                 "--example", "a", "--m", "20", "--replicates", "15",
                                 "--seed", "11", "--out", str(path))
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_report_goes_to_stdout_when_artifact_in_file(self, capsys, tmp_path):
        out = tmp_path / "study.csv"
        code, stdout, _ = run_cli(capsys, "experiment", "--name", "importance_study",
                                  "--example", "b", "--m", "15", "--replicates", "8",
                                  "--seed", "12", "--out", str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["experiment"] == "importance_study"
        assert "rows" not in report

    def test_config_file_with_flag_overrides(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "experiment": "mse_grid", "m": 4, "format": "csv",
        }))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(config),
                               "--m", "2")
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 3  # header + both targets for m<=2

    def test_invalid_config_key_exits_one(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "mse_grid", "wat": True}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 1 and "wat" in err

    @pytest.mark.parametrize("name", [None, "qq_export"])
    @pytest.mark.parametrize("content,kind", [([1, 2], "list"), ("qq_export", "str"),
                                              (7, "int"), (None, "NoneType")])
    def test_non_object_config_exits_one_naming_its_type(self, capsys, tmp_path, content,
                                                         kind, name):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(content))
        flags = () if name is None else ("--name", name)
        code, out, err = run_cli(capsys, "experiment", "--config", str(config), *flags)
        assert code == 1 and out == ""
        assert f"a config must be a JSON object, got {kind}" in err

    @pytest.mark.parametrize("content", [b"", b"{", b'{"experiment": "mse_grid",}', b"nan?",
                                         b'\xff{"experiment": "mse_grid"}'])
    def test_invalid_json_config_exits_one_with_the_decoder_message(self, capsys, tmp_path,
                                                                   content):
        config = tmp_path / "cfg.json"
        config.write_bytes(content)
        code, out, err = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 1 and out == ""
        try:
            json.loads(content.decode("utf-8"))
        except ValueError as exc:
            message = str(exc)
        assert f"is not valid JSON: {message}" in err

    def test_non_numeric_config_params_exit_one(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "qq_export", "dist": "normal",
                                      "params": ["x", 1]}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 1
        assert "normal parameters must be numbers" in err

    def test_string_config_params_exit_one(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "qq_export", "dist": "normal",
                                      "params": "12"}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 1 and out == ""
        assert "normal parameters must be a list of numbers, got '12'" in err

    @pytest.mark.parametrize("name", ["importance_study", "moment_check", "spacing_check"])
    def test_one_replicate_of_a_spread_exits_one(self, capsys, name):
        # One replicate has no sample variance: the report would hold NaN or
        # Infinity, which is not JSON.
        code, out, err = run_cli(capsys, "experiment", "--name", name, "--replicates", "1",
                                 "--format", "json")
        assert code == 1 and out == ""
        assert f"replicates for {name} must be >= 2, got 1" in err

    def test_one_replicate_of_qq_export_is_valid_json(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--name", "qq_export", "--m", "4",
                               "--replicates", "1", "--format", "json")
        assert code == 0
        json.loads(out, parse_constant=pytest.fail)

    def test_missing_name_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "experiment")
        assert code == 1 and "--name" in err

    def test_unwritable_output_exits_two(self, capsys):
        # The path is well formed and its directory exists; the write itself
        # fails (Linux's /dev/full takes no bytes).
        code, _, err = run_cli(capsys, "experiment", "--name", "mse_grid", "--m", "2",
                               "--out", "/dev/full")
        assert code == 2 and "runtime failure" in err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_config_path_that_is_no_file_exits_one(self, capsys, tmp_path, where):
        path = str(tmp_path / "no_such.json") if where == "missing" else str(tmp_path)
        code, out, err = run_cli(capsys, "experiment", "--config", path)
        assert code == 1 and out == ""
        assert f"config file {path!r} does not exist or is a directory" in err

    @pytest.mark.parametrize("argv", [("experiment", "--name", "mse_grid", "--m", "2"),
                                      ("sample", "--m", "3"), ("theory", "--m", "3")])
    @pytest.mark.parametrize("where,message", [
        ("missing", "the directory of output path {path!r} does not exist"),
        ("directory", "output path {path!r} is a directory")])
    def test_output_path_in_no_directory_exits_one_before_any_work(
            self, capsys, monkeypatch, tmp_path, argv, where, message):
        def fail(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        for name in ("run_experiment", "sample", "distribution_from_name", "sample_size"):
            monkeypatch.setattr(f"qstrat.cli.{name}", fail)
        directory = tmp_path / "no_such_dir"
        path = str(directory / "x.csv") if where == "missing" else str(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 1 and out == ""
        assert message.format(path=path) in err

    def test_config_output_path_in_no_directory_exits_one(self, capsys, tmp_path):
        path = str(tmp_path / "no_such_dir" / "x.csv")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "mse_grid", "m": 2, "output_path": path}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 1 and out == ""
        assert "does not exist" in err


class TestChunkedOutput:
    """The artifact is written chunk by chunk, to --out or to stdout."""

    QQ = ("experiment", "--name", "qq_export", "--dist", "gamma", "--params", "2,5",
          "--m", "50", "--layers", "30,20", "--replicates", "25", "--seed", "13")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_stdout_and_render_chunks_agree(self, capsys, tmp_path, fmt):
        result = run_experiment(ExperimentConfig("qq_export", dist="gamma", params=(2.0, 5.0),
                                                 m=50, layers=(30, 20), replicates=25, seed=13))
        # Three whole row blocks and a partial one.
        assert len(result.rows) // _BLOCK_ROWS == 3 and len(result.rows) % _BLOCK_ROWS
        expected = "".join(render_chunks(result, fmt))
        path = tmp_path / f"qq.{fmt}"
        code, _, _ = run_cli(capsys, *self.QQ, "--format", fmt, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == expected.encode("utf-8")
        code, out, _ = run_cli(capsys, *self.QQ, "--format", fmt)
        assert code == 0 and out == expected

    def test_table_that_cannot_be_rendered_creates_no_file(self, capsys, tmp_path,
                                                          monkeypatch):
        # The NUL sits in the second row block, so only planning every
        # column before the first write keeps the file from being opened.
        table = Table({"n": range(_BLOCK_ROWS + 1), "label": ["ok"] * _BLOCK_ROWS + ["a\0b"]})
        monkeypatch.setitem(EXPERIMENTS, "mse_grid",
                            lambda cfg: ExperimentResult({"experiment": "mse_grid"}, table))
        path = tmp_path / "grid.csv"
        for out in (("--out", str(path)), ()):
            code, stdout, err = run_cli(capsys, "experiment", "--name", "mse_grid", *out)
            assert code == 1 and stdout == ""
            assert "NUL character in column 'label'" in err
        assert not path.exists()

    @pytest.mark.parametrize("command", [
        ("experiment", "--name", "qq_export", "--m", "5", "--replicates", "2"),
        ("sample", "--m", "5"),
    ])
    def test_failed_write_leaves_no_partial_file(self, capsys, tmp_path, monkeypatch,
                                                 command):
        def failing_chunks(result, fmt):
            yield "a whole first chunk\n"
            raise OSError("disk full")

        monkeypatch.setattr("qstrat.cli.render_chunks", failing_chunks)
        path = tmp_path / "artifact.csv"
        path.write_text("an older artifact\n")
        code, _, err = run_cli(capsys, *command, "--out", str(path))
        assert code == 2 and "disk full" in err
        assert not path.exists()
        # A path that is no regular file, such as /dev/stdout, is left alone.
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, *command, "--out", str(link))
        assert code == 2 and link.is_symlink()
        assert target.read_text() == "a whole first chunk\n"


class TestSeedEnvironment:
    def test_env_seed_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QSTRAT_SEED", "123")
        _, out_env, _ = run_cli(capsys, "sample", "--dist", "uniform", "--m", "4",
                                "--method", "qs")
        _, out_explicit, _ = run_cli(capsys, "sample", "--dist", "uniform", "--m", "4",
                                     "--method", "qs", "--seed", "123")
        assert out_env == out_explicit

    def test_explicit_seed_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QSTRAT_SEED", "123")
        _, out, _ = run_cli(capsys, "sample", "--dist", "uniform", "--m", "4",
                            "--method", "qs", "--seed", "7")
        _, out7, _ = run_cli(capsys, "sample", "--dist", "uniform", "--m", "4",
                             "--method", "qs", "--seed", "7")
        assert out == out7

    def test_invalid_env_seed_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("QSTRAT_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "sample", "--dist", "uniform", "--m", "4",
                               "--method", "qs")
        assert code == 1 and "QSTRAT_SEED" in err


class TestOneConfigPath:
    """The config file, the flags and QSTRAT_SEED are merged into one mapping,
    checked once: flag > config file > QSTRAT_SEED > the default seed."""

    def write(self, tmp_path, mapping):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(mapping))
        return str(config)

    def test_a_flag_mends_a_bad_config_field(self, capsys, tmp_path):
        config = self.write(tmp_path, {"experiment": "mse_grid", "m": 0})
        code, out, err = run_cli(capsys, "experiment", "--config", config, "--m", "2")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "experiment", "--name", "mse_grid", "--m", "2")[1]

    def test_env_seed_sets_the_seed_a_config_leaves_out(self, capsys, tmp_path, monkeypatch):
        config = self.write(tmp_path, {"experiment": "moment_check", "m": 3, "replicates": 4,
                                       "format": "json"})
        _, explicit, _ = run_cli(capsys, "experiment", "--config", config, "--seed", "5")
        monkeypatch.setenv("QSTRAT_SEED", "5")
        code, out, _ = run_cli(capsys, "experiment", "--config", config)
        assert code == 0 and json.loads(out)["seed"] == 5
        assert out == explicit

    @pytest.mark.parametrize("where", ["flag", "flag over a config", "config"])
    def test_a_given_seed_leaves_a_bad_env_seed_unread(self, capsys, tmp_path, monkeypatch,
                                                      where):
        monkeypatch.setenv("QSTRAT_SEED", "bad")
        source = (("--name", "mse_grid", "--m", "2") if where == "flag" else
                  ("--config", self.write(tmp_path, {"experiment": "mse_grid", "m": 2,
                                                     "seed": 3})))
        flags = ("--seed", "3") if where.startswith("flag") else ()
        code, _, err = run_cli(capsys, "experiment", *source, *flags)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("value", [5, 2.5, True, ["x.csv"], {"path": "x.csv"}])
    def test_non_string_config_output_path_exits_one(self, capsys, tmp_path, value):
        config = self.write(tmp_path, {"experiment": "mse_grid", "m": 2, "output_path": value})
        code, out, err = run_cli(capsys, "experiment", "--config", config)
        assert code == 1 and out == ""
        assert f"output_path must be a string, got {value!r}" in err

    def test_config_without_an_experiment_exits_one(self, capsys, tmp_path):
        config = self.write(tmp_path, {"m": 3})
        code, out, err = run_cli(capsys, "experiment", "--config", config)
        assert code == 1 and out == ""
        assert 'a config must name its "experiment"' in err

    @pytest.mark.parametrize("argv", [("experiment", "--name", "mse_grid", "--m", "2"),
                                      ("sample", "--m", "3"), ("theory", "--m", "3")])
    def test_empty_output_path_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert code == 1 and out == ""
        assert "output path is empty" in err

    @pytest.mark.parametrize("argv,flag,kind", [
        (("sample", "--m", "3"), "--params", "number"),
        (("sample", "--method", "lqs"), "--layers", "integer"),
        (("theory", "--m", "3"), "--layers", "integer"),
        (("experiment", "--name", "qq_export"), "--params", "number"),
        (("experiment", "--name", "moment_check"), "--layers", "integer"),
        (("experiment", "--name", "spacing_check"), "--ell", "integer"),
    ])
    def test_bad_list_flag_exits_one_naming_the_list(self, capsys, argv, flag, kind):
        code, out, err = run_cli(capsys, *argv, flag, "1,x")
        assert code == 1 and out == ""
        assert f"argument {flag}: expected a comma-separated {kind} list, got '1,x'" in err

    def test_empty_list_flag_is_not_given(self, capsys, tmp_path):
        config = self.write(tmp_path, {"experiment": "moment_check", "m": 3, "replicates": 4,
                                       "layers": [1, 2], "format": "json"})
        _, out, _ = run_cli(capsys, "experiment", "--config", config)
        code, out_empty, _ = run_cli(capsys, "experiment", "--config", config, "--layers", "")
        assert code == 0 and out_empty == out
        assert json.loads(out)["layers"] == [1, 2]


# Values a config field may hold in a drawn config file.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-1, 3) | st.floats(-2, 2) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
# Flag text: short tokens, and free text with no digit, so that no drawn
# number is large.
TEXT = st.sampled_from(["", "0", "1", "2", "3", "-1", "2.5", "1,2", "1,,2", "nan", "inf",
                        "1e-320", "qs", "normal", "json", "a"]) | st.text(",.-+ ex_a", max_size=4)
FAMILIES = [("uniform", []), ("normal", [0, 1]), ("beta", [0.5, 2]), ("gamma", [2, 5]),
            ("discrete", [0, 0.5, 1, 0.5])]


def mostly(valid, junk):
    """``valid`` nine times in ten, else ``junk``."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


@st.composite
def config_files(draw):
    """A JSON object over ExperimentConfig's fields, most values valid.  m and
    replicates are always set and small, so that each run takes milliseconds;
    '<file>' and '<missing dir>' stand for output paths (see paths_in)."""
    dist, params = draw(st.sampled_from(FAMILIES))
    valid = {
        "experiment": st.sampled_from(sorted(EXPERIMENTS)),
        "m": st.integers(2, 6),
        "replicates": st.integers(2, 5),
        "dist": st.just(dist),
        "params": st.just(params),
        "layers": st.none() | st.lists(st.integers(1, 3), min_size=1, max_size=3),
        "seed": st.integers(0, 2 ** 40),
        "output_path": st.sampled_from([None, "<file>"]),
        "format": st.sampled_from(["csv", "json", " JSON "]),
        "example": st.sampled_from(["a", "b"]),
        "ell": st.integers(1, 2) | st.lists(st.integers(1, 2), min_size=1, max_size=2),
    }
    junk = {
        "experiment": st.nothing(),
        "replicates": JSON_VALUES.filter(lambda v: v is not None),  # None runs 100000
        "output_path": st.one_of(st.integers(), st.floats(), st.booleans(),
                                 st.lists(st.integers(), max_size=2), st.just("<missing dir>")),
    }
    return {name: draw(mostly(strategy, junk.get(name, JSON_VALUES)))
            for name, strategy in valid.items()
            if name in ("experiment", "m", "replicates") or draw(st.booleans())}


LAYER_FLAGS = ["3", "1,2", "1,1,1"]
FAMILY_FLAGS = ["uniform", "normal --params 0,1", "beta --params 0.5,2", "gamma --params 2,5",
                "discrete --params 0,0.5,1,0.5"]
# Valid values of each subcommand's flags, and the flags every argv starts
# with (drawn flags may override them); m and replicates stay small.
FLAG_VALUES = {
    "sample": {"--dist": FAMILY_FLAGS, "--method": ["iid", "qs", "lqs"], "--m": ["1", "3"],
               "--layers": LAYER_FLAGS, "--seed": ["0", "7", "123456789"],
               "--format": ["csv", "json"]},
    "theory": {"--m": ["1", "3", "6"], "--k": ["1", "3"], "--ell": ["1", "2"],
               "--layers": LAYER_FLAGS},
    "experiment": {"--name": sorted(EXPERIMENTS), "--dist": FAMILY_FLAGS, "--m": ["2", "3"],
                   "--layers": LAYER_FLAGS, "--replicates": ["2", "3"], "--seed": ["0", "7"],
                   "--format": ["csv", "json"], "--example": ["a", "b"], "--ell": ["1", "1,2"]},
}
HEADS = {"sample": ["--m", "3"], "theory": ["--m", "3"],
         "experiment": ["--name", "mse_grid", "--m", "3", "--replicates", "3"]}


@st.composite
def argvs(draw):
    """A subcommand with drawn flags, most of them valid; '<file>',
    '<missing dir>' and '<dir>' stand for output paths (see paths_in)."""
    command = draw(st.sampled_from(sorted(FLAG_VALUES)))
    argv = [command, *HEADS[command]]
    flags = FLAG_VALUES[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5)):
        valid = st.sampled_from(flags[flag]).map(str.split)
        argv += [flag, *draw(mostly(valid, TEXT.map(lambda text: [text])))]
    out = draw(mostly(st.sampled_from([None, "<file>"]),
                      st.sampled_from(["<missing dir>", "<dir>"])))
    return argv if out is None else [*argv, "--out", out]


def paths_in(directory):
    """The paths that '<file>', '<missing dir>' and '<dir>' stand for."""
    return {"<file>": os.path.join(directory, "out.txt"),
            "<missing dir>": os.path.join(directory, "no_such_dir", "out.txt"),
            "<dir>": directory}


def run_in(directory, argv):
    """main(argv), with the stand-ins of ``paths_in(directory)`` replaced;
    returns (exit code, stdout, stderr)."""
    paths = paths_in(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_usage_contract(code, out, err):
    """Exit 0, or exit 1 with nothing on stdout; never a runtime failure."""
    assert code in (0, 1), err
    assert code == 0 or out == ""
    assert "runtime failure" not in err


class TestCliContractSweep:
    """Drawn config files and argv: every input either runs or is a usage error."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(config=config_files())
    def test_config_files(self, config):
        with tempfile.TemporaryDirectory() as directory:
            if isinstance(config.get("output_path"), str):
                config["output_path"] = paths_in(directory)[config["output_path"]]
            path = os.path.join(directory, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            assert_usage_contract(*run_in(directory, ["experiment", "--config", path]))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(argv=argvs())
    def test_argv(self, argv):
        with tempfile.TemporaryDirectory() as directory:
            assert_usage_contract(*run_in(directory, argv))


class TestUsageErrors:
    def test_unknown_argument_exits_one(self, capsys):
        assert main(["sample", "--bogus"]) == 1

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestSubprocessRoundTrip:
    """End-to-end console-script invocations."""

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "qstrat.cli", *args],
            capture_output=True, text=True, timeout=120,
        )

    def test_sample_repeatable(self):
        r1 = self.run("sample", "--dist", "normal", "--params", "0,1", "--m", "6",
                      "--method", "qs", "--seed", "99")
        r2 = self.run("sample", "--dist", "normal", "--params", "0,1", "--m", "6",
                      "--method", "qs", "--seed", "99")
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout

    def test_validation_exit_code(self):
        r = self.run("sample", "--method", "lqs", "--m", "30", "--layers", "18,9,4")
        assert r.returncode == 1
        assert "sum to 31" in r.stderr


def _load_artifact_digests():
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestArtifactDigests:
    """tools/artifact_digests.py prints a line per command and fails when
    any command fails."""

    GOOD = ("theory", "--m", "10", "--ell", "1")
    BAD = ("experiment", "--name", "spacing_check", "--m", "1")

    def run(self, monkeypatch, capsys, commands):
        tool = _load_artifact_digests()
        monkeypatch.setattr(tool, "commands", lambda: iter(commands))
        monkeypatch.setattr(sys, "path", list(sys.path))
        code = tool.main([str(Path(tool.__file__).resolve().parents[1])])
        return code, capsys.readouterr().out.splitlines()

    def test_all_commands_pass(self, monkeypatch, capsys):
        code, lines = self.run(monkeypatch, capsys, [self.GOOD])
        assert code == 0
        assert len(lines) == 1 and "exit=0  qstrat theory" in lines[0]

    def test_failing_command_fails_the_run_after_every_line(self, monkeypatch, capsys):
        code, lines = self.run(monkeypatch, capsys, [self.BAD, self.GOOD])
        assert code == 1
        assert len(lines) == 2
        assert "exit=1  qstrat experiment --name spacing_check --m 1" in lines[0]
        assert "exit=0  qstrat theory" in lines[1]
