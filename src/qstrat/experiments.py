"""Reproducible experiment harness: moment checks, QQ exports, MSE grids,
spacing checks and importance-sampling studies.

Every experiment is driven by an :class:`ExperimentConfig`, runs fully
seed-keyed randomness, and produces a JSON-able report plus a flat table of
rows suitable for CSV export.  Statistical rows always carry the theory
value, the empirical value, its standard error and the z-score, so pass/fail
is mechanically checkable (|z| <= 4 convention, goodness-of-fit at alpha =
0.01).  Reruns with the same configuration produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import theory
from .distributions import Distribution, distribution_from_name
from .errors import DomainError
from .estimators import BENCHMARKS, estimate_replicates
from .sampling import sample_size, spawn_seed, uniforms

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "DEFAULT_SEED",
    "EXPERIMENTS",
    "run_experiment",
    "run_moment_check",
    "run_qq_export",
    "run_mse_grid",
    "run_spacing_check",
    "run_importance_study",
    "rows_to_csv",
    "report_to_json",
]

DEFAULT_SEED = 42
KS_ALPHA = 0.01
Z_LIMIT = 4.0

# Replicate counts used when the config does not override them.
DEFAULT_REPLICATES = {
    "moment_check": 100_000,
    "qq_export": 100,
    "mse_grid": 1,
    "spacing_check": 100_000,
    "importance_study": 1_000,
}

# Fixed stream indices per sampling method, so adding or dropping a method
# never shifts another method's random numbers.
_METHOD_STREAM = {"iid": 0, "qs": 1, "lqs": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run.

    ``dist``/``params`` specify the sampling distribution where one is
    needed; ``layers`` adds the LQS method to method-comparison experiments
    and must sum to ``m``.  ``ell`` is the spacing-lag list for the spacing
    check and ``example`` picks the benchmark integral ("a" or "b") for the
    importance study.
    """

    experiment: str
    dist: str = "uniform"
    params: tuple[float, ...] = ()
    m: int = 30
    layers: tuple[int, ...] | None = None
    replicates: int | None = None
    seed: int = DEFAULT_SEED
    output_path: str | None = None
    format: str = "csv"
    example: str = "a"
    ell: tuple[int, ...] = (1, 3, 5)

    def resolved_replicates(self) -> int:
        if self.replicates is not None:
            return int(self.replicates)
        return DEFAULT_REPLICATES[self.experiment]

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise DomainError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {sorted(EXPERIMENTS)}"
            )
        sample_size("qs", self.m)
        if self.layers is not None:
            sample_size("lqs", self.m, self.layers)
        if self.resolved_replicates() < 1:
            raise DomainError("replicates must be >= 1")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.format!r}")
        if self.experiment == "importance_study" and self.example not in BENCHMARKS:
            raise DomainError(
                f"example must be one of {sorted(BENCHMARKS)}, got {self.example!r}"
            )
        return self


@dataclass
class ExperimentResult:
    """Report dictionary plus the flat row table backing the CSV artifact."""

    report: dict
    rows: list[dict] = field(default_factory=list)


def _distribution(cfg: ExperimentConfig) -> Distribution:
    return distribution_from_name(cfg.dist, cfg.params)


def _method_list(cfg: ExperimentConfig) -> list[str]:
    methods = ["iid", "qs"]
    if cfg.layers is not None:
        methods.append("lqs")
    return methods


def _uniform_batches(method: str, cfg: ExperimentConfig, reps: int):
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_METHOD_STREAM[method],))
    )
    return uniforms(method, cfg.layers if method == "lqs" else cfg.m, reps, rng)[0]


def _z_row(method: str, statistic: str, theory_value: float, values: np.ndarray) -> dict:
    """Statistic row from per-replicate values: empirical mean, SE, z-score."""
    emp = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(values.size))
    z = (emp - theory_value) / se if se > 0 else 0.0
    return {
        "method": method,
        "statistic": statistic,
        "theory": float(theory_value),
        "empirical": emp,
        "std_error": se,
        "z": float(z),
        "passed": bool(abs(z) <= Z_LIMIT),
    }


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_moment_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Empirical mean/variance/pairwise correlation of the method uniforms
    against the closed-form moments, with z-scores."""
    cfg = cfg.validate()
    if cfg.m < 2:
        raise DomainError("moment check needs m >= 2 for pairwise statistics")
    reps = cfg.resolved_replicates()
    # IID is LQS with all-unit layers and QS is LQS with one layer.
    layers = {"iid": (1,) * cfg.m, "qs": (cfg.m,), "lqs": cfg.layers}
    rows = []
    for method in _method_list(cfg):
        mom = theory.lqs_uniform_moments(layers[method])
        u = _uniform_batches(method, cfg, reps)
        centered = u - 0.5
        row_mean = u.mean(axis=1)
        row_sq = (centered ** 2).mean(axis=1)
        # Average of (U_i - 1/2)(U_j - 1/2) over ordered pairs i != j is an
        # unbiased per-replicate estimate of the pairwise covariance.
        s = centered.sum(axis=1)
        pair = (s ** 2 - (centered ** 2).sum(axis=1)) / (cfg.m * (cfg.m - 1))
        rows.append(_z_row(method, "mean", 0.5, row_mean))
        rows.append(_z_row(method, "variance", 1.0 / 12.0, row_sq))
        cov_row = _z_row(method, "pair_covariance", mom.pair_covariance, pair)
        rows.append(cov_row)
        rows.append(
            {
                "method": method,
                "statistic": "pair_correlation",
                "theory": mom.pair_correlation,
                "empirical": 12.0 * cov_row["empirical"],
                "std_error": 12.0 * cov_row["std_error"],
                "z": cov_row["z"],
                "passed": cov_row["passed"],
            }
        )
    report = {
        "experiment": "moment_check",
        "m": cfg.m,
        "layers": list(cfg.layers) if cfg.layers else None,
        "replicates": reps,
        "seed": cfg.seed,
        "z_limit": Z_LIMIT,
        "checks": rows,
        "all_passed": all(r["passed"] for r in rows),
    }
    return ExperimentResult(report, rows)


def run_qq_export(cfg: ExperimentConfig) -> ExperimentResult:
    """Plot-ready QQ data: sorted sample values against theoretical quantiles.

    IID rows use Q(k/(m+1)); QS and LQS rows use Q((k - 1/2)/m), the expected
    order statistics under each scheme.
    """
    cfg = cfg.validate()
    dist = _distribution(cfg)
    reps = cfg.resolved_replicates()
    m = cfg.m
    p_iid = np.array([theory.quantile_targets(m, k)[0] for k in range(1, m + 1)])
    p_qs = np.array([theory.quantile_targets(m, k)[1] for k in range(1, m + 1)])
    rows = []
    for method in _method_list(cfg):
        u = _uniform_batches(method, cfg, reps)
        if method == "qs":
            # One uniform per quantile block, checked before export.
            edges = np.ceil(m * u).astype(np.int64)
            if not np.all(np.sort(edges, axis=1) == np.arange(1, m + 1)):
                raise AssertionError("QS block coverage violated")
        targets = dist.quantile(p_iid if method == "iid" else p_qs)
        values = np.sort(dist.quantile(u), axis=1)
        for r in range(reps):
            for k in range(m):
                rows.append(
                    {
                        "method": method,
                        "replicate": r + 1,
                        "k": k + 1,
                        "theoretical_quantile": float(targets[k]),
                        "sample_order_stat": float(values[r, k]),
                    }
                )
    report = {
        "experiment": "qq_export",
        "dist": cfg.dist,
        "params": list(cfg.params),
        "m": m,
        "layers": list(cfg.layers) if cfg.layers else None,
        "replicates": reps,
        "seed": cfg.seed,
        "n_rows": len(rows),
    }
    return ExperimentResult(report, rows)


def run_mse_grid(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact MSE of both methods for every (m, k) up to cfg.m and both
    quantile targets, with the log-MSE difference log(IID) - log(QS)."""
    cfg = cfg.validate()
    rows = []
    for target in ("iid", "qs"):
        for m in range(1, cfg.m + 1):
            for k in range(1, m + 1):
                mse_iid = theory.mse_exact(m, k, target, "iid")
                mse_qs = theory.mse_exact(m, k, target, "qs")
                rows.append(
                    {
                        "target": target,
                        "m": m,
                        "k": k,
                        "mse_iid": mse_iid,
                        "mse_qs": mse_qs,
                        "log_mse_diff": float(np.log(mse_iid) - np.log(mse_qs)),
                    }
                )
    dominance = all(
        r["log_mse_diff"] > 0 for r in rows if r["m"] >= 2
    ) and all(r["log_mse_diff"] == 0 for r in rows if r["m"] == 1)
    report = {
        "experiment": "mse_grid",
        "max_m": cfg.m,
        "n_rows": len(rows),
        "qs_dominates_for_m_ge_2": dominance,
    }
    return ExperimentResult(report, rows)


def run_spacing_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Empirical order-statistic spacings against their exact laws.

    For each method and lag ell, one spacing is taken per replicate (with the
    lower index k cycling over its valid range, since the law does not depend
    on k), giving an IID sample for the KS test and moment z-scores.
    """
    from scipy import stats  # imported here: it is slow and used only here

    cfg = cfg.validate()
    m = cfg.m
    lags = tuple(int(v) for v in cfg.ell)
    if any(not 1 <= v <= m - 1 for v in lags):
        raise DomainError(f"spacing lags must be in 1..{m - 1}, got {lags}")
    reps = cfg.resolved_replicates()
    rows = []
    for method in ("iid", "qs"):
        u = np.sort(_uniform_batches(method, cfg, reps), axis=1)
        for ell in lags:
            k = 1 + (np.arange(reps) % (m - ell))
            d = u[np.arange(reps), k + ell - 1] - u[np.arange(reps), k - 1]
            law = theory.spacing_law(m, ell, method)
            ks_stat, ks_p = stats.kstest(d, law.cdf)
            mean_emp = float(d.mean())
            mean_se = float(d.std(ddof=1) / np.sqrt(reps))
            sq = (d - law.mean) ** 2
            var_emp = float(sq.mean())
            var_se = float(sq.std(ddof=1) / np.sqrt(reps))
            rows.append(
                {
                    "method": method,
                    "ell": ell,
                    "law": law.kind,
                    "mean_theory": law.mean,
                    "mean_empirical": mean_emp,
                    "mean_std_error": mean_se,
                    "mean_z": (mean_emp - law.mean) / mean_se,
                    "var_theory": law.variance,
                    "var_empirical": var_emp,
                    "var_std_error": var_se,
                    "var_z": (var_emp - law.variance) / var_se,
                    "ks_statistic": float(ks_stat),
                    "ks_p_value": float(ks_p),
                    "passed": bool(
                        ks_p > KS_ALPHA
                        and abs((mean_emp - law.mean) / mean_se) <= Z_LIMIT
                        and abs((var_emp - law.variance) / var_se) <= Z_LIMIT
                    ),
                }
            )
    report = {
        "experiment": "spacing_check",
        "m": m,
        "ell": list(lags),
        "replicates": reps,
        "seed": cfg.seed,
        "ks_alpha": KS_ALPHA,
        "z_limit": Z_LIMIT,
        "checks": rows,
        "all_passed": all(r["passed"] for r in rows),
    }
    return ExperimentResult(report, rows)


def run_importance_study(cfg: ExperimentConfig) -> ExperimentResult:
    """Replicated importance-sampling study on a benchmark integral.

    Emits per-replicate estimates (violin-plot ready) for each method plus a
    summary with mean, standard error and RMSE against the true value.
    """
    cfg = cfg.validate()
    prob = BENCHMARKS[cfg.example]()
    reps = cfg.resolved_replicates()
    rows = []
    summary = {}
    for method in _method_list(cfg):
        study = estimate_replicates(
            prob,
            cfg.m,
            method,
            reps,
            seed=spawn_seed(cfg.seed, _METHOD_STREAM[method]),
            layers=cfg.layers if method == "lqs" else None,
        )
        for r, est in enumerate(study.estimates, start=1):
            rows.append({"method": method, "replicate": r, "estimate": float(est)})
        se_of_mean = study.std_err / np.sqrt(reps)
        summary[method] = {
            "mean": study.mean,
            "std_err": study.std_err,
            "rmse": study.rmse,
            "z_vs_true": float((study.mean - prob.true_value) / se_of_mean),
        }
    report = {
        "experiment": "importance_study",
        "example": cfg.example,
        "label": prob.label,
        "true_value": prob.true_value,
        "m": cfg.m,
        "replicates": reps,
        "seed": cfg.seed,
        "methods": summary,
    }
    return ExperimentResult(report, rows)


EXPERIMENTS = {
    "moment_check": run_moment_check,
    "qq_export": run_qq_export,
    "mse_grid": run_mse_grid,
    "spacing_check": run_spacing_check,
    "importance_study": run_importance_study,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Dispatch a validated config to its experiment function."""
    cfg = cfg.validate()
    return EXPERIMENTS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Render rows as CSV: header from the first row, floats at 9 significant
    digits, '\n' line endings.  Byte-stable for identical inputs."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(row[col]) for col in header])
    return buf.getvalue()


def report_to_json(result: ExperimentResult, include_rows: bool = True) -> str:
    payload = dict(result.report)
    if include_rows:
        payload["rows"] = result.rows
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_artifact(result: ExperimentResult, fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(result.rows)
    return report_to_json(result)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from a JSON-compatible mapping (e.g. a config file)."""
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(mapping) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(mapping)
    for key in ("params", "layers", "ell"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(kwargs[key])
    cfg = ExperimentConfig(**kwargs)
    return cfg.validate()


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace config fields with any non-None override values."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
