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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import theory
from .distributions import distribution_from_name
from .errors import DomainError, check_int, check_name
from .estimators import BENCHMARKS, estimate_replicates
from .sampling import sample_size, spawn_seed, uniforms

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Table",
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

# Experiments that report a sample variance or standard error across their
# replicates, which one replicate leaves NaN or infinite (not valid JSON).
_SPREAD_EXPERIMENTS = ("moment_check", "spacing_check", "importance_study")

# Fixed stream indices per sampling method, so adding or dropping a method
# never shifts another method's random numbers.
_METHOD_STREAM = {"iid": 0, "qs": 1, "lqs": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run, checked when the config is built.

    ``dist``/``params`` specify the sampling distribution where one is needed;
    ``layers`` adds the LQS method to method-comparison experiments and must
    sum to ``m``.  ``ell`` is the spacing-lag list for the spacing check and
    ``example`` picks the benchmark integral ("a" or "b") for the importance
    study.  m, layers, replicates and ell are integers >= 1 and the seed an
    integer >= 0, stored as Python ints (layers and ell as tuples; one lag may
    be given bare); the experiment, format and example names are stored in
    lower case, and ``output_path`` is None or a string.  ``qq_export`` builds
    its distribution once to check dist and params (kept as given, in a tuple).
    moment_check, spacing_check and importance_study report a spread across
    replicates and need replicates >= 2.  A bad field raises DomainError.
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

    def __post_init__(self):
        experiment = check_name(self.experiment, EXPERIMENTS, "experiment")
        _, m = sample_size("qs", self.m)
        ell = self.ell if isinstance(self.ell, Iterable) else (self.ell,)
        checked = {
            "experiment": experiment,
            "m": m,
            "seed": check_int(self.seed, "seed", low=0),
            "format": check_name(self.format, ("csv", "json"), "format"),
            "ell": tuple(check_int(v, "spacing lag") for v in ell),
        }
        if self.layers is not None:
            checked["layers"] = sample_size("lqs", m, self.layers)[1].sizes
        if self.replicates is not None:
            low = 2 if experiment in _SPREAD_EXPERIMENTS else 1
            checked["replicates"] = check_int(self.replicates, f"replicates for {experiment}",
                                              low=low)
        if experiment == "importance_study":
            checked["example"] = check_name(self.example, BENCHMARKS, "example")
        if experiment == "qq_export":
            distribution_from_name(self.dist, self.params)
            checked["params"] = tuple(self.params)
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise DomainError(f"output_path must be a string, got {self.output_path!r}")
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def resolved_replicates(self) -> int:
        if self.replicates is not None:
            return self.replicates
        return DEFAULT_REPLICATES[self.experiment]


class Table(Sequence):
    """Read-only sequence of row dicts backed by equal-length columns.

    ``columns`` maps each column name (a string) to a list or 1-D numpy
    array of its values, in header order.  ``table[i]`` is row i as a fresh
    dict of Python values, a slice is a Table of those rows, and iteration
    yields every row in turn.
    """

    __slots__ = ("columns", "_n")

    def __init__(self, columns: dict[str, list | np.ndarray] | None = None):
        columns = dict(columns or {})
        if not all(isinstance(name, str) for name in columns):
            raise DomainError(f"column names must be strings, got {list(columns)}")
        if any(isinstance(values, np.ndarray) and values.ndim != 1 for values in columns.values()):
            raise DomainError("a numpy column must be 1-D")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise DomainError(f"columns must have equal lengths, got {sorted(lengths)}")
        self.columns = columns
        self._n = lengths.pop() if lengths else 0

    @classmethod
    def from_rows(cls, rows) -> Table:
        """Columns of a list of dicts, with the header from the first row."""
        rows = list(rows)
        header = rows[0] if rows else {}
        return cls({name: [row[name] for row in rows] for name in header})

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Table({name: values[index] for name, values in self.columns.items()})
        i = range(self._n)[index]
        return next(iter(self[i:i + 1]))

    def __iter__(self):
        names = list(self.columns)
        for values in _python_rows(list(self.columns.values()), self._n):
            yield dict(zip(names, values))


def _python_rows(columns: Sequence, n: int):
    """The n rows of the columns as tuples of Python values, a block at a time."""
    for start in range(0, n, _BLOCK_ROWS):
        block = [values[start:start + _BLOCK_ROWS] for values in columns]
        yield from zip(*(v.tolist() if isinstance(v, np.ndarray) else v for v in block))


@dataclass
class ExperimentResult:
    """Report dictionary plus the row table backing the CSV artifact.

    ``rows`` is always a :class:`Table`; a list of row dicts given here is
    turned into one.
    """

    report: dict
    rows: Table = field(default_factory=Table)

    def __post_init__(self):
        if not isinstance(self.rows, Table):
            self.rows = Table.from_rows(self.rows)


def _method_list(cfg: ExperimentConfig) -> list[str]:
    return ["iid", "qs"] if cfg.layers is None else ["iid", "qs", "lqs"]


def _uniform_batches(method: str, cfg: ExperimentConfig, reps: int):
    """The (reps, m) uniforms of ``method`` from its own seed stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_METHOD_STREAM[method],))
    )
    return uniforms(method, cfg.layers if method == "lqs" else cfg.m, reps, rng)


def _mean_se_z(values: np.ndarray, theory_value: float) -> tuple[float, float, float]:
    """Mean of per-replicate ``values``, its SE std(ddof=1) / sqrt(n), and its
    z-score against ``theory_value`` (0 when the SE is 0)."""
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(values.size))
    return mean, se, float((mean - theory_value) / se) if se > 0 else 0.0


def _z_row(method: str, statistic: str, theory_value: float, values: np.ndarray) -> dict:
    """Statistic row from per-replicate values: empirical mean, SE, z-score."""
    emp, se, z = _mean_se_z(values, theory_value)
    return {
        "method": method,
        "statistic": statistic,
        "theory": float(theory_value),
        "empirical": emp,
        "std_error": se,
        "z": z,
        "passed": abs(z) <= Z_LIMIT,
    }


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_moment_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Empirical mean/variance/pairwise correlation of the method uniforms
    against the closed-form moments, with z-scores."""
    if cfg.m < 2:
        raise DomainError("moment check needs m >= 2 for pairwise statistics")
    reps = cfg.resolved_replicates()
    # IID is LQS with all-unit layers and QS is LQS with one layer.
    layers = {"iid": (1,) * cfg.m, "qs": (cfg.m,), "lqs": cfg.layers}
    rows = []
    for method in _method_list(cfg):
        mom = theory.lqs_uniform_moments(layers[method])
        # This loop owns the batch: it is centred and then squared in place.
        centered = _uniform_batches(method, cfg, reps)
        row_mean = centered.mean(axis=1)
        centered -= 0.5
        s = centered.sum(axis=1)
        np.square(centered, out=centered)
        row_sq = centered.mean(axis=1)
        # Average of (U_i - 1/2)(U_j - 1/2) over ordered pairs i != j is an
        # unbiased per-replicate estimate of the pairwise covariance; it is
        # formed in s's array, which is not read again.
        pair = np.square(s, out=s)
        pair -= centered.sum(axis=1)
        pair /= cfg.m * (cfg.m - 1)
        rows.append(_z_row(method, "mean", 0.5, row_mean))
        rows.append(_z_row(method, "variance", 1.0 / 12.0, row_sq))
        cov_row = _z_row(method, "pair_covariance", mom.pair_covariance, pair)
        rows.append(cov_row)
        rows.append(dict(cov_row, statistic="pair_correlation", theory=mom.pair_correlation,
                         empirical=12.0 * cov_row["empirical"],
                         std_error=12.0 * cov_row["std_error"]))
        # Freed before the next method draws, so one batch is alive at a time
        # and no array of this method's is alive while it draws.
        del centered, row_mean, s, row_sq, pair
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
    dist = distribution_from_name(cfg.dist, cfg.params)
    reps = cfg.resolved_replicates()
    m = cfg.m
    p_iid, p_qs = theory._quantile_target_arrays(m)
    methods = _method_list(cfg)
    targets = [dist.quantile(p_iid if method == "iid" else p_qs) for method in methods]
    values = []
    for method in methods:
        batch = dist.quantile(_uniform_batches(method, cfg, reps))
        batch.sort(axis=1)
        values.append(batch.ravel())
    rows = Table({
        "method": list(chain.from_iterable([method] * (reps * m) for method in methods)),
        "replicate": np.tile(np.repeat(np.arange(1, reps + 1, dtype=np.int64), m), len(methods)),
        "k": np.tile(np.arange(1, m + 1, dtype=np.int64), reps * len(methods)),
        "theoretical_quantile": np.concatenate([np.tile(t, reps) for t in targets]),
        "sample_order_stat": np.concatenate(values),
    })
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

    m = cfg.m
    lags = cfg.ell
    if any(not 1 <= v <= m - 1 for v in lags):
        raise DomainError(f"spacing lags must be in 1..{m - 1}, got {lags}")
    reps = cfg.resolved_replicates()
    rows = []
    for method in ("iid", "qs"):
        u = _uniform_batches(method, cfg, reps)
        u.sort(axis=1)
        for ell in lags:
            k = 1 + (np.arange(reps) % (m - ell))
            d = u[np.arange(reps), k + ell - 1] - u[np.arange(reps), k - 1]
            law = theory.spacing_law(m, ell, method)
            ks_stat, ks_p = stats.kstest(d, law.cdf)
            mean_emp, mean_se, mean_z = _mean_se_z(d, law.mean)
            var_emp, var_se, var_z = _mean_se_z((d - law.mean) ** 2, law.variance)
            rows.append(
                {
                    "method": method,
                    "ell": ell,
                    "law": law.kind,
                    "mean_theory": law.mean,
                    "mean_empirical": mean_emp,
                    "mean_std_error": mean_se,
                    "mean_z": mean_z,
                    "var_theory": law.variance,
                    "var_empirical": var_emp,
                    "var_std_error": var_se,
                    "var_z": var_z,
                    "ks_statistic": float(ks_stat),
                    "ks_p_value": float(ks_p),
                    "passed": bool(ks_p > KS_ALPHA and abs(mean_z) <= Z_LIMIT
                                   and abs(var_z) <= Z_LIMIT),
                }
            )
        # Freed before the next method draws, so one batch is alive at a time.
        del u
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
    prob = BENCHMARKS[cfg.example]()
    reps = cfg.resolved_replicates()
    columns = {"method": [], "replicate": [], "estimate": []}
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
        columns["method"] += [method] * reps
        columns["replicate"] += range(1, reps + 1)
        columns["estimate"] += study.estimates.tolist()
        summary[method] = {
            "mean": study.mean,
            "std_err": study.std_err,
            "rmse": study.rmse,
            "z_vs_true": _mean_se_z(study.estimates, prob.true_value)[2],
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
    return ExperimentResult(report, Table(columns))


EXPERIMENTS = {
    "moment_check": run_moment_check,
    "qq_export": run_qq_export,
    "mse_grid": run_mse_grid,
    "spacing_check": run_spacing_check,
    "importance_study": run_importance_study,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Dispatch a config to its experiment function."""
    return EXPERIMENTS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------

# Rows are formatted this many at a time, through one % template per block.
_BLOCK_ROWS = 256
# Indentation of a row's fields in the JSON artifact: rows sit two levels
# below the top-level object at indent=2.
_FIELD_INDENT = "\n      "
_EMPTY_ROWS = '\n  "rows": []'


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _json_cell(value) -> str:
    # A nested container is indented as it would be three levels deep.
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", _FIELD_INDENT)


def _column(values) -> tuple[set, Sequence]:
    """A column's set of cell types, read from the dtype of an int64 or float64
    array and else by a scan, with its cells (floats as a float64 array)."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return {int}, values
        if values.dtype == np.float64:
            return {float}, values
        values = values.tolist()
    kinds = set(map(type, values))
    return kinds, np.array(values, dtype=np.float64) if kinds == {float} else values


def _float_cells(values: np.ndarray, conversion: str) -> tuple[str, Sequence]:
    """The conversion and cells of a float64 column: the template formats
    them itself with ``conversion``, unless at least half the cells repeat,
    when each distinct value is formatted once and read with ``%s``.  Values
    are told apart by their bits, so 0.0 and -0.0 stay distinct."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * bits.size > values.size:
        return conversion, values
    text = [conversion % v for v in bits.view(np.float64).tolist()]
    return "%s", np.array(text, dtype=object)[inverse]


def _csv_text(text: str, where: str) -> str:
    """``text``, unless it holds a NUL, which the csv module rejects on
    Python 3.10 and writes unquoted on 3.11+."""
    if "\0" in text:
        raise DomainError(f"CSV cannot hold the NUL character in {where}")
    return text


def _csv_quoted(name: str, strings: list[str], lone: bool) -> list[str]:
    """The cells of column ``name`` as the csv module writes them, quoting
    each distinct value once.  In a table of one (``lone``) column csv writes
    an empty cell as ``""``, so that the row is not blank; elsewhere it
    writes nothing."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoted = {}
    for value in set(strings):
        buf.seek(0)
        buf.truncate()
        writer.writerow((_csv_text(value, f"column {name!r}"),))
        quoted[value] = buf.getvalue()[:-1]
    if "" in quoted and not lone:
        quoted[""] = ""
    if all(value == text for value, text in quoted.items()):
        return strings
    return [quoted[value] for value in strings]


def _csv_plan(name: str, values, lone: bool) -> tuple[str, Sequence]:
    """The % conversion of column ``name`` in the CSV row template and the
    cells it reads: ``%d`` for ints, ``%.9g`` for floats, and quoted strings
    otherwise (``lone``: the table has this one column)."""
    kinds, values = _column(values)
    if kinds == {int}:
        return "%d", values
    if kinds == {float}:
        return _float_cells(values, "%.9g")
    strings = values if kinds == {str} else list(map(_format_cell, values))
    return "%s", _csv_quoted(name, strings, lone)


def _json_plan(values) -> tuple[str, Sequence]:
    """The % conversion of one column in the JSON row template and the cells
    it reads: ``%d`` for ints, ``%r`` for finite floats, each distinct
    string encoded once, and ``_json_cell`` text for anything else (bools,
    None, mixed, nested, NaN or inf)."""
    kinds, values = _column(values)
    if kinds == {int}:
        return "%d", values
    if kinds == {float} and np.isfinite(values).all():
        return _float_cells(values, "%r")
    if kinds == {str}:
        text = {v: json.encoder.encode_basestring_ascii(v) for v in set(values)}
        return "%s", list(map(text.__getitem__, values))
    return "%s", list(map(_json_cell, values))


def _fill_rows(row: str, sep: str, cells: Sequence, n: int) -> list[str]:
    """The n rows, each ``row %`` the Python values of ``cells``, separated by
    ``sep``, in blocks of up to _BLOCK_ROWS rows formatted by one template each."""
    rows = _python_rows(cells, n)
    full = (sep + row) * _BLOCK_ROWS
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        size = min(_BLOCK_ROWS, n - start)
        template = full if size == _BLOCK_ROWS else (sep + row) * size
        if start == 0:
            template = template[len(sep):]
        blocks.append(template % tuple(chain.from_iterable(islice(rows, size))))
    return blocks


def rows_to_csv(rows: Table | list[dict]) -> str:
    """Render rows as CSV: header from the first row, floats at 9 significant
    digits, '\n' line endings.  Byte-stable for identical inputs.  A NUL
    character in a column name or string cell raises DomainError."""
    table = rows if isinstance(rows, Table) else Table.from_rows(rows)
    if not table:
        return ""
    names = [_csv_text(name, "a column name") for name in table.columns]
    lone = len(names) == 1
    conversions, cells = zip(*(_csv_plan(name, table.columns[name], lone) for name in names))
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    body = _fill_rows(",".join(conversions) + "\n", "", cells, len(table))
    return "".join([header.getvalue(), *body])


def report_to_json(result: ExperimentResult, include_rows: bool = True) -> str:
    """Render the report, with its rows under "rows" unless ``include_rows``
    is false, as ``json.dumps(..., indent=2, sort_keys=True)`` would."""
    payload = dict(result.report)
    if include_rows:
        payload["rows"] = []
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    table = result.rows
    if not (include_rows and table):
        return text
    # The report is rendered with empty rows; the rows go inside its
    # brackets, from one row template over the sorted column names (a "%"
    # in a name is escaped), and are joined with the report text once.
    names = sorted(table.columns)
    conversions, cells = zip(*(_json_plan(table.columns[name]) for name in names))
    fields = ",".join(_FIELD_INDENT + json.dumps(name).replace("%", "%%") + ": " + conversion
                      for name, conversion in zip(names, conversions))
    body = _fill_rows("\n    {" + fields + "\n    }", ",", cells, len(table))
    cut = text.index(_EMPTY_ROWS) + len(_EMPTY_ROWS) - 1
    return "".join([text[:cut], *body, "\n  ", text[cut:]])


def render_artifact(result: ExperimentResult, fmt: str) -> str:
    return rows_to_csv(result.rows) if fmt == "csv" else report_to_json(result)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from a JSON-compatible mapping (e.g. a config file).
    Anything but a dict, a key that is not a config field, or no
    "experiment" key raises :class:`DomainError`."""
    if not isinstance(mapping, dict):
        raise DomainError(f"a config must be a JSON object, got {type(mapping).__name__}")
    unknown = set(mapping) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in mapping:
        raise DomainError('a config must name its "experiment"')
    return ExperimentConfig(**mapping)

