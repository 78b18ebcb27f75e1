"""CLI surface: subcommands, exit codes, artifact determinism and the
QSTRAT_SEED environment override."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qstrat.cli import main
from qstrat.distributions import Gamma


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
