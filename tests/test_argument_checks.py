"""Integer and name arguments are checked once, in `qstrat.errors`: every
integer argument (sizes, order and block indices, lags, replicate counts,
seeds) must be an integer -- numpy integers included, bools not -- in
range, else DomainError; it is never truncated.  An ExperimentConfig is
checked and normalised when it is built."""

import dataclasses

import numpy as np
import pytest

from qstrat.cli import main
from qstrat.distributions import (
    Normal,
    Uniform01,
    block_boundaries,
    conditional_cdf,
    conditional_pdf,
    conditional_quantile,
)
from qstrat.errors import DomainError
from qstrat.estimators import (
    beta_log_integral,
    estimate_replicates,
    importance_estimate,
    taylor_variance_approx,
)
from qstrat.experiments import (
    ExperimentConfig,
    config_from_mapping,
    report_to_json,
    run_experiment,
)
from qstrat.sampling import (
    iid_uniform_batches,
    lqs_uniform_batches,
    qs_uniform_batches,
    sample_qs,
    spawn_seed,
    uniforms,
)
from qstrat.theory import (
    mse_asymptotic,
    mse_exact,
    order_stat_moments,
    qs_uniform_moments,
    quantile_targets,
    spacing_law,
)

BAD_SCALARS = {"2.5": 2.5, "10.7": 10.7, "0": 0, "-1": -1, "'3'": "3",
               "True": True, "False": False, "np.True_": np.True_}

DIST = Normal(0, 1)
PROB = beta_log_integral()


def _rng():
    return np.random.default_rng(5)


# entry point -> (call of the one checked integer argument, a valid value).
# Each call returns something np.testing.assert_equal can compare.
ENTRY_POINTS = {
    "quantile_targets m": (lambda v: quantile_targets(v, 1), 4),
    "quantile_targets k": (lambda v: quantile_targets(12, v), 4),
    "order_stat_moments m": (lambda v: order_stat_moments(v, 1, "iid"), 4),
    "order_stat_moments k": (lambda v: order_stat_moments(12, v, "qs"), 4),
    "mse_exact m": (lambda v: mse_exact(v, 1, "iid", "qs"), 4),
    "mse_exact k": (lambda v: mse_exact(12, v, "qs", "iid"), 4),
    "mse_asymptotic m": (lambda v: mse_asymptotic(0.3, v, "qs", "qs"), 4),
    "qs_uniform_moments m": (lambda v: dataclasses.asdict(qs_uniform_moments(v)), 4),
    "spacing_law ell": (lambda v: dataclasses.asdict(spacing_law(12, v, "qs")), 4),
    "taylor_variance_approx m": (lambda v: taylor_variance_approx(1.0, v, "qs"), 4),
    "block_boundaries m": (lambda v: block_boundaries(DIST, v).boundaries, 4),
    "conditional_pdf s": (lambda v: conditional_pdf(DIST, 12, v, 0.1), 4),
    "conditional_cdf s": (lambda v: conditional_cdf(DIST, 12, v, 0.1), 4),
    "conditional_quantile s": (lambda v: conditional_quantile(Uniform01(), 12, v, 0.5), 4),
    "iid_uniform_batches m": (lambda v: iid_uniform_batches(v, 3, _rng()), 4),
    "qs_uniform_batches m": (lambda v: qs_uniform_batches(v, 3, _rng()), 4),
    "iid_uniform_batches reps": (lambda v: iid_uniform_batches(5, v, _rng()), 4),
    "qs_uniform_batches reps": (lambda v: qs_uniform_batches(5, v, _rng()), 4),
    "lqs_uniform_batches reps": (lambda v: lqs_uniform_batches((2, 3), v, _rng()), 4),
    "uniforms reps": (lambda v: uniforms("qs", 5, v, _rng()), 4),
    "estimate_replicates replicates": (
        lambda v: estimate_replicates(PROB, 10, "qs", v, seed=1).estimates, 4),
    "ExperimentConfig replicates": (
        lambda v: ExperimentConfig("moment_check", m=5, replicates=v), 4),
    "ExperimentConfig ell": (
        lambda v: ExperimentConfig("spacing_check", m=10, ell=(1, v)), 4),
}

# entry point -> call of the seed
SEEDED = {
    "sample_qs": lambda seed: sample_qs(DIST, 5, seed=seed).values,
    "spawn_seed": lambda seed: spawn_seed(seed, 3),
    "importance_estimate": lambda seed: importance_estimate(PROB, 10, "qs", seed=seed),
    "estimate_replicates": lambda seed: estimate_replicates(PROB, 10, "qs", 3, seed=seed).estimates,
    "ExperimentConfig": lambda seed: ExperimentConfig("mse_grid", m=3, seed=seed),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_bad_integer_raises_domain_error(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(DomainError):
        call(BAD_SCALARS[bad])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integers_equal_python_ints(entry):
    call, good = ENTRY_POINTS[entry]
    np.testing.assert_equal(call(np.int64(good)), call(good))
    np.testing.assert_equal(call(np.int32(good)), call(good))


@pytest.mark.parametrize("entry", SEEDED)
@pytest.mark.parametrize("bad", [-1, 2.9, "3", 1.0, True, False, np.True_, np.False_])
def test_bad_seed_raises_domain_error(entry, bad):
    with pytest.raises(DomainError):
        SEEDED[entry](bad)


@pytest.mark.parametrize("entry", SEEDED)
def test_seed_zero_and_numpy_seeds_are_accepted(entry):
    call = SEEDED[entry]
    call(0)
    np.testing.assert_equal(call(np.uint64(12345)), call(12345))


def test_spawn_seed_index_is_checked():
    with pytest.raises(DomainError):
        spawn_seed(1, -1)
    with pytest.raises(DomainError):
        spawn_seed(1, 2.5)
    assert spawn_seed(1, np.int64(2)) == spawn_seed(1, 2)


def test_replicates_beyond_the_stream_index_range_are_rejected():
    # One 32-bit spawn-key word per replicate: index 2^32 would need a second.
    with pytest.raises(DomainError, match=r"<= 2\^32"):
        estimate_replicates(PROB, 10, "qs", 2 ** 32 + 1, seed=1)


def test_range_checks_depending_on_another_argument():
    for call in (lambda: quantile_targets(3, 4), lambda: spacing_law(5, 5, "iid"),
                 lambda: conditional_quantile(DIST, 3, 4, 0.5)):
        with pytest.raises(DomainError, match=r"in 1\.\.\d"):
            call()


class TestNames:
    def test_names_are_case_insensitive(self):
        assert taylor_variance_approx(2.0, 10, " QS") == taylor_variance_approx(2.0, 10, "qs")
        assert mse_exact(7, 2, "IID", "Qs") == mse_exact(7, 2, "iid", "qs")
        cfg = ExperimentConfig(" Importance_Study", format="JSON", example="B")
        assert (cfg.experiment, cfg.format, cfg.example) == ("importance_study", "json", "b")

    @pytest.mark.parametrize("call", [
        lambda: taylor_variance_approx(1.0, 10, "lqs"),
        lambda: order_stat_moments(5, 2, "sobol"),
        lambda: mse_exact(5, 2, "median", "qs"),
        lambda: ExperimentConfig("mse_grid", format="xml"),
        lambda: ExperimentConfig("qq_plot"),
    ])
    def test_unknown_names_raise_domain_error(self, call):
        with pytest.raises(DomainError, match="must be one of"):
            call()


class TestConfigIsNormalisedWhenBuilt:
    @pytest.mark.parametrize("experiment,fields", [
        ("moment_check", {"m": 5, "replicates": 50, "seed": 3}),
        ("mse_grid", {"m": 4, "seed": 3}),
        ("importance_study", {"m": 10, "replicates": 20, "seed": 3}),
        ("spacing_check", {"m": 6, "replicates": 40, "seed": 3, "ell": (1, 2)}),
    ])
    def test_numpy_fields_render_the_same_json(self, experiment, fields):
        plain = ExperimentConfig(experiment, **fields)
        numpy_fields = {
            key: tuple(np.int64(v) for v in value) if isinstance(value, tuple) else np.int64(value)
            for key, value in fields.items()
        }
        cfg = ExperimentConfig(experiment, **numpy_fields)
        assert cfg == plain
        assert all(type(getattr(cfg, key)) is type(value) for key, value in fields.items())
        assert report_to_json(run_experiment(cfg)) == report_to_json(run_experiment(plain))

    def test_layers_are_stored_as_a_tuple_of_ints(self):
        cfg = ExperimentConfig("moment_check", m=np.int64(5), layers=[np.int32(3), 2])
        assert cfg.layers == (3, 2) and all(type(v) is int for v in cfg.layers)

    def test_lags_from_a_mapping_or_bare(self):
        built = config_from_mapping({"experiment": "spacing_check", "m": 12, "ell": [2, 4],
                                     "layers": [8, 4], "params": None})
        assert (built.ell, built.layers, built.params) == ((2, 4), (8, 4), None)
        assert ExperimentConfig("spacing_check", m=12, ell=np.int64(3)).ell == (3,)
        with pytest.raises(DomainError, match="spacing lag must be an integer, got None"):
            ExperimentConfig("spacing_check", ell=None)

    def test_qq_export_params_are_checked_and_kept_as_given(self):
        cfg = ExperimentConfig("qq_export", dist="gamma", params=[2, 5], m=4, replicates=2)
        assert cfg.params == (2, 5) and all(type(v) is int for v in cfg.params)
        assert '"params": [\n    2,\n    5\n  ]' in report_to_json(run_experiment(cfg))
        for dist, params in (("normal", ["x", 1]), ("gamma", None), ("beta", (1,)),
                             ("cauchy", ())):
            with pytest.raises(DomainError):
                ExperimentConfig("qq_export", dist=dist, params=params)

    def test_bad_seed_fails_at_construction(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            ExperimentConfig("mse_grid", seed=-1)


class TestCliSeeds:
    @pytest.mark.parametrize("argv", [
        ["sample", "--m", "5", "--seed", "-1"],
        ["experiment", "--name", "moment_check", "--m", "3", "--replicates", "10",
         "--seed", "-1"],
    ])
    def test_negative_seed_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--m", "5"],
        ["experiment", "--name", "moment_check", "--m", "3", "--replicates", "10"],
    ])
    def test_negative_env_seed_exits_one(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("QSTRAT_SEED", "-1")
        assert main(argv) == 1
        assert "QSTRAT_SEED must be >= 0" in capsys.readouterr().err
