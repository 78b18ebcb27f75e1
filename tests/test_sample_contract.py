"""The (method, m, layers) contract of a sample, checked at every public entry
point: a bad combination raises DomainError (the CLI exits 1), and method
names are case-insensitive."""

import numpy as np
import pytest

from qstrat.cli import main
from qstrat.distributions import Normal
from qstrat.errors import DomainError
from qstrat.estimators import beta_log_integral, estimate_replicates, importance_estimate
from qstrat.experiments import ExperimentConfig
from qstrat.sampling import LayerSpec, sample, sample_iid, sample_lqs, sample_qs, sample_size

# id -> (method, m, layers)
BAD = {
    "unknown method": ("sobol", 10, None),
    "m = 0": ("qs", 0, None),
    "m = 2.5": ("qs", 2.5, None),
    "m = (3, 4)": ("qs", (3, 4), None),
    "lqs without layers": ("lqs", 10, None),
    "layers not summing to m": ("lqs", 10, (6, 3)),
    "layers with qs": ("qs", 9, (6, 3)),
    "layer size 2.5": ("lqs", 5, (2.5, 3)),
    "string layers": ("lqs", 5, "32"),
}
M_ROWS = ("m = 0", "m = 2.5", "m = (3, 4)")
LAYER_ROWS = ("layers not summing to m", "layer size 2.5", "string layers")


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _layer_args(layers):
    return ("--layers", _text(layers)) if layers is not None else ()


DIST = Normal(0, 1)
PROB = beta_log_integral()

# entry point -> (call taking (method, m, layers), the rows it can express)
ENTRY_POINTS = {
    "sample_size": (sample_size, tuple(BAD)),
    "sample": (lambda method, m, layers: sample(DIST, method, m, seed=1, layers=layers),
               tuple(BAD)),
    "sample_iid": (lambda method, m, layers: sample_iid(DIST, m, seed=1), M_ROWS),
    "sample_qs": (lambda method, m, layers: sample_qs(DIST, m, seed=1), M_ROWS),
    "sample_lqs": (lambda method, m, layers: sample_lqs(DIST, layers, seed=1),
                   ("lqs without layers", "layer size 2.5", "string layers")),
    "importance_estimate": (
        lambda method, m, layers: importance_estimate(PROB, m, method, seed=1, layers=layers),
        tuple(BAD)),
    "estimate_replicates": (
        lambda method, m, layers: estimate_replicates(PROB, m, method, 3, seed=1,
                                                      layers=layers),
        tuple(BAD)),
    "ExperimentConfig.validate": (
        lambda method, m, layers: ExperimentConfig("moment_check", m=m,
                                                   layers=layers).validate(),
        M_ROWS + LAYER_ROWS),
}

# subcommand -> (argv taking (method, m, layers), the rows it can express).
# The CLI reads --layers as text, so "32" is one layer of 32.
COMMANDS = {
    "qstrat sample": (
        lambda method, m, layers: ["sample", "--method", method, "--m", _text(m),
                                   "--seed", "1", *_layer_args(layers)],
        tuple(BAD)),
    "qstrat theory": (
        lambda method, m, layers: ["theory", "--m", _text(m), *_layer_args(layers)],
        M_ROWS + LAYER_ROWS),
}


def _cases(table):
    return [pytest.param(entry, row, id=f"{entry}: {row}")
            for entry, (_, rows) in table.items() for row in rows]


@pytest.mark.parametrize("entry,row", _cases(ENTRY_POINTS))
def test_bad_sample_spec_raises_domain_error(entry, row):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(DomainError):
        call(*BAD[row])


@pytest.mark.parametrize("command,row", _cases(COMMANDS))
def test_bad_sample_spec_exits_one(command, row, capsys):
    argv, _ = COMMANDS[command]
    assert main(argv(*BAD[row])) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("method", ["QS", " qs", "Qs "])
def test_method_names_are_case_insensitive(method):
    ref = sample(DIST, "qs", 10, seed=4)
    batch = sample(DIST, method, 10, seed=4)
    assert batch.method == "qs"
    np.testing.assert_array_equal(batch.uniforms, ref.uniforms)
    np.testing.assert_array_equal(batch.values, ref.values)
    assert importance_estimate(PROB, 10, method, seed=4) == importance_estimate(
        PROB, 10, "qs", seed=4)


class TestValidSpecs:
    def test_numpy_integers_are_sizes(self):
        ref = sample_qs(DIST, 5, seed=2)
        np.testing.assert_array_equal(sample_qs(DIST, np.int64(5), seed=2).values, ref.values)
        assert LayerSpec((np.int64(2), np.int32(3))).sizes == (2, 3)
        assert sample_lqs(DIST, np.int64(5), seed=2).layers == LayerSpec((5,))
        study = estimate_replicates(PROB, np.int64(10), "qs", 3, seed=1)
        assert study.m == 10 and type(study.m) is int

    def test_lqs_size_defaults_to_the_layer_total(self):
        assert sample_size("lqs", layers=(3, 2)) == ("lqs", LayerSpec((3, 2)))
        assert sample_size("LQS", 5, [3, 2]) == ("lqs", LayerSpec((3, 2)))
        assert sample(DIST, "lqs", seed=3, layers=(3, 2)).m == 5
        study = estimate_replicates(PROB, None, "lqs", 3, seed=1, layers=(3, 2))
        assert study.m == 5 and study.estimates.size == 3

    def test_plain_sizes_pass_through(self):
        assert sample_size(" IID", 7) == ("iid", 7)
        assert sample_size("qs", np.int64(7)) == ("qs", 7)

    def test_layer_sum_message_names_both_totals(self):
        with pytest.raises(DomainError, match=r"sum to 101; they must sum to m=100"):
            sample_size("lqs", 100, (50, 30, 21))
