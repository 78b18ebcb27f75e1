"""Workloads of the qstrat benchmark: inputs, operations and output checks.

A workload is a list of operations ("ops") built from one input seed.  One
*pass* runs every op of the list once.  A run draws a fixed *pool* of
``POOL_PASSES`` passes, each with an input seed derived from the benchmark
seed and the pass index, and cycles through the pool until its time is up,
so the same seed always runs and checks the same inputs.  Every op is driven
through qstrat's public API and checked after it returns, outside the timed
interval.

Calls into the package go through the module attributes the package itself
resolves them through (``experiments.run_experiment``, ``sampling.sample_qs``
...), so the traced run can wrap them there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from qstrat import experiments, sampling
from qstrat.distributions import Beta, Distribution, Gamma, Normal, distribution_from_name
from qstrat.experiments import Z_LIMIT, ExperimentConfig

# Relative round-trip tolerance on a tail probability, fixed from float64
# reasoning before any measurement: a quantile accurate to a few hundred ulp
# of the tail probability (eps = 2.2e-16) passes with a wide margin, and
# anything looser than 1e-9 is not "relative accuracy in both tails".
REL_TOL = 1e-9

# Workload sizes.  "smoke" keeps every code path but runs in milliseconds.
SIZES = {
    "full": {
        "is_m": 100, "is_layers": (50, 30, 20), "is_reps": 1000,
        "uc_m": 30, "uc_layers": (18, 9, 3), "uc_ell": (1, 3, 5), "uc_reps": None,
        "tb_m": 2000, "tb_layers": (1000, 600, 400),
        "qq_m": 1000, "qq_layers": (500, 300, 200), "qq_reps": None,
    },
    "smoke": {
        "is_m": 10, "is_layers": (5, 3, 2), "is_reps": 40,
        "uc_m": 6, "uc_layers": (3, 2, 1), "uc_ell": (1, 2), "uc_reps": 2000,
        "tb_m": 20, "tb_layers": (10, 6, 4),
        "qq_m": 10, "qq_layers": (5, 3, 2), "qq_reps": 3,
    },
}

# Passes of distinct inputs in a run's pool.  Ops that fail on some inputs
# only (a statistical gate in uniform_checks, Beta(0.5, 0.5) in tail_batches)
# get enough inputs for a steady failure share; one cycle through the pool
# still fits in a 20 s run on a 2-core host.
POOL_PASSES = {"is_study": 2, "uniform_checks": 20, "tail_batches": 32, "qq_artifacts": 1}

TAIL_LAWS = (Gamma(0.1, 1.0), Gamma(0.05, 1.0), Beta(0.5, 0.5), Beta(0.05, 2.0))
QQ_LAWS = (("normal", (0.0, 1.0)), ("gamma", (2.0, 5.0)))

# Per-layer metrics of the traced run, and the end-to-end metrics each should
# move on which workload.  Written down before the first measurement.
PREDICTIONS = {
    "distributions.quantile_*": {
        "moves": ["wall_s", "op_p50_s", "op_tail_s", "points_per_s", "ok_frac"],
        "on": ["tail_batches", "is_study"],
        "little_on": ["qq_artifacts"],
        "flat_on": ["uniform_checks"],
    },
    "estimators.*, sampling.spawn_seed_*": {
        "moves": ["wall_s", "op_p50_s", "op_tail_s"],
        "on": ["is_study"],
        "flat_on": ["uniform_checks", "tail_batches", "qq_artifacts"],
    },
    "sampling.uniform_*": {
        "moves": ["wall_s", "points_per_s"],
        "on": ["uniform_checks"],
        "little_on": ["is_study"],
    },
    "theory.*, experiments.self_s": {"moves": ["wall_s"], "on": ["uniform_checks"]},
    "experiments.rows, experiments.render_*": {
        "moves": ["wall_s", "peak_rss_mb"],
        "on": ["qq_artifacts"],
        "little_on": ["is_study", "uniform_checks", "tail_batches"],
    },
    "import.*": {"moves": ["setup_s"], "on": ["*"]},
}

# Predicted share of a pass's time spent in one layer on the seed code, from
# single-pass measurements made before the benchmark existed.
SEED_SHARES = {
    "is_study": {"distributions.quantile_s": 0.84},
    "uniform_checks": {"distributions.quantile_s": 0.0},
    "tail_batches": {"distributions.quantile_s": 0.95},
    "qq_artifacts": {"experiments.render_s": 0.8},
}


@dataclass
class Outcome:
    """What the check of one op found."""

    ok: bool
    points: int
    digest: str
    detail: str = ""


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` inspects its output."""

    name: str
    run: Callable[[object], object]
    check: Callable[[object], Outcome]


def input_seed(workload: str, seed: int, pass_index: int) -> int:
    """Seed of one pass's inputs, a pure function of (workload, seed, pass)."""
    text = f"{workload}:{seed}:{pass_index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Tail round trip, evaluated with scipy's special functions only
# ---------------------------------------------------------------------------

def _cdf_and_survival(dist: Distribution):
    if isinstance(dist, Gamma):
        a, rate = dist.shape, dist.rate
        return (lambda x: special.gammainc(a, rate * x),
                lambda x: special.gammaincc(a, rate * x))
    if isinstance(dist, Beta):
        a, b = dist.a, dist.b

        def survival(x):
            # 1 - x is exact for x >= 1/2; below that S = 1 - F loses at most
            # one ulp of a probability that is then above S(1/2).
            with np.errstate(invalid="ignore"):
                return np.where(x >= 0.5, special.betainc(b, a, 1.0 - x),
                                1.0 - special.betainc(a, b, x))

        return (lambda x: special.betainc(a, b, x), survival)
    if isinstance(dist, Normal):
        mu, sigma = dist.mu, dist.sigma
        return (lambda x: special.ndtr((x - mu) / sigma),
                lambda x: special.ndtr((mu - x) / sigma))
    raise TypeError(f"no reference CDF for {dist!r}")


def roundtrip_ok(dist: Distribution, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each x is a quantile of p to relative accuracy in its tail.

    For p <= 1/2 the lower tail F(x) is compared with p, above that the upper
    tail S(x) with 1 - p (exact in float64 for p >= 1/2).  Besides REL_TOL * tail,
    the allowance holds the probability mass of one ulp of x on either side:
    no double can do better than the nearest one.
    """
    lower, upper = _cdf_and_survival(dist)
    up = p > 0.5
    tail = np.where(up, 1.0 - p, p)
    lo_edge, hi_edge = dist.support

    def prob(y):
        y = np.clip(y, lo_edge, hi_edge)
        return np.where(up, upper(y), lower(y))

    with np.errstate(invalid="ignore"):
        at = prob(x)
        below = prob(np.nextafter(x, -np.inf))
        above = prob(np.nextafter(x, np.inf))
        slack = np.maximum(np.abs(above - at), np.abs(at - below))
        return np.abs(at - tail) <= REL_TOL * tail + slack


def _coverage_ok(u: np.ndarray, blocks: np.ndarray, m: int) -> bool:
    """One uniform in each of the m blocks ((s-1)/m, s/m]."""
    scaled = m * u
    inside = np.all((blocks - 1 <= scaled) & (scaled <= blocks))
    return bool(inside and np.array_equal(np.sort(blocks), np.arange(1, m + 1)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _experiment_op(name: str, cfg: ExperimentConfig, check, fmts=("csv",)) -> Op:
    def run(tracer):
        with tracer.span("experiments.run") as span:
            result = experiments.run_experiment(cfg)
            span.items = len(result.rows)
        rendered = []
        for fmt in fmts:
            if fmt == "csv":
                rendered.append(experiments.rows_to_csv(result.rows))
            else:
                rendered.append(experiments.report_to_json(result))
        return result, rendered

    def checked(output) -> Outcome:
        result, rendered = output
        digest = _sha256(*(text.encode() for text in rendered))
        ok, points, detail = check(result, rendered)
        return Outcome(ok, points, digest, detail)

    return Op(name, run, checked)


def is_study(seed: int, size: dict) -> list[Op]:
    def check(result, rendered):
        methods = result.report["methods"]
        bad_z = [k for k, v in methods.items() if not abs(v["z_vs_true"]) <= Z_LIMIT]
        qs_better = methods["qs"]["std_err"] < methods["iid"]["std_err"]
        points = result.report["replicates"] * result.report["m"] * len(methods)
        ok = not bad_z and qs_better and len(methods) == 3
        return ok, points, f"|z|>{Z_LIMIT}: {bad_z}, qs se < iid se: {qs_better}"

    return [
        _experiment_op(
            f"study_{example}",
            ExperimentConfig("importance_study", m=size["is_m"], layers=size["is_layers"],
                             replicates=size["is_reps"], example=example, seed=seed),
            check,
        )
        for example in ("a", "b")
    ]


def uniform_checks(seed: int, size: dict) -> list[Op]:
    def check(result, rendered):
        report = result.report
        n_methods = len({row["method"] for row in result.rows})
        points = report["replicates"] * report["m"] * n_methods
        return bool(report["all_passed"]), points, f"all_passed={report['all_passed']}"

    moment = ExperimentConfig("moment_check", m=size["uc_m"], layers=size["uc_layers"],
                              replicates=size["uc_reps"], seed=seed)
    spacing = ExperimentConfig("spacing_check", m=size["uc_m"], ell=size["uc_ell"],
                               replicates=size["uc_reps"], seed=seed)
    return [_experiment_op("moment_check", moment, check),
            _experiment_op("spacing_check", spacing, check)]


def _batch_op(name: str, dist: Distribution, method: str, layers, seed: int) -> Op:
    def run(tracer):
        if method == "qs":
            return sampling.sample_qs(dist, layers[0], seed=seed)
        return sampling.sample_lqs(dist, layers, seed=seed)

    def check(batch) -> Outcome:
        digest = _sha256(batch.uniforms.tobytes(), batch.values.tobytes())
        if batch.layer_index is None:
            covered = _coverage_ok(batch.uniforms, batch.blocks, batch.m)
        else:
            covered = all(
                _coverage_ok(batch.uniforms[sel], batch.blocks[sel], mk)
                for k, mk in enumerate(layers, start=1)
                for sel in [batch.layer_index == k]
            )
        tails = roundtrip_ok(dist, batch.uniforms, batch.values)
        ok = covered and bool(np.all(tails))
        return Outcome(ok, batch.m, digest,
                       f"coverage={covered}, round-trip misses={int(np.sum(~tails))}")

    return Op(name, run, check)


def tail_batches(seed: int, size: dict) -> list[Op]:
    ops = []
    for i, dist in enumerate(TAIL_LAWS):
        for method, layers in (("qs", (size["tb_m"],)), ("lqs", size["tb_layers"])):
            ops.append(_batch_op(f"{method}_{dist!r}", dist, method, layers,
                                 input_seed("tail_batches", seed, i)))
    return ops


def qq_artifacts(seed: int, size: dict) -> list[Op]:
    def check_for(dist: Distribution):
        def check(result, rendered):
            m, reps = result.report["m"], result.report["replicates"]
            rows = result.rows
            n = 3 * reps * m
            if len(rows) != n:
                return False, 0, f"{len(rows)} rows, expected {n}"
            stats = np.fromiter((r["sample_order_stat"] for r in rows), float, n)
            targets = np.fromiter((r["theoretical_quantile"] for r in rows), float, n)
            ks = np.fromiter((r["k"] for r in rows), float, n)
            sorted_ok = bool(np.all(np.diff(stats.reshape(3 * reps, m), axis=1) >= 0))
            iid = np.array([r["method"] == "iid" for r in rows])
            p = np.where(iid, ks / (m + 1), (2 * ks - 1) / (2 * m))
            tails = roundtrip_ok(dist, p, targets)
            csv_lines_ok = rendered[0].count("\n") == n + 1
            json_ok = rendered[1].startswith("{") and rendered[1].endswith("}\n")
            ok = sorted_ok and bool(np.all(tails)) and csv_lines_ok and json_ok
            return ok, n, (f"sorted={sorted_ok}, target misses={int(np.sum(~tails))}, "
                           f"csv lines ok={csv_lines_ok}, json ok={json_ok}")
        return check

    ops = []
    for name, params in QQ_LAWS:
        cfg = ExperimentConfig("qq_export", dist=name, params=params, m=size["qq_m"],
                               layers=size["qq_layers"], replicates=size["qq_reps"],
                               seed=seed)
        dist = distribution_from_name(name, params)
        ops.append(_experiment_op(f"qq_{name}", cfg, check_for(dist), ("csv", "json")))
    return ops


WORKLOADS = {
    "is_study": is_study,
    "uniform_checks": uniform_checks,
    "tail_batches": tail_batches,
    "qq_artifacts": qq_artifacts,
}


def build(workload: str, seed: int, pass_index: int, smoke: bool) -> list[Op]:
    """The ops of one pass of ``workload``."""
    size = SIZES["smoke" if smoke else "full"]
    return WORKLOADS[workload](input_seed(workload, seed, pass_index), size)


def build_pool(workload: str, seed: int, smoke: bool) -> list[list[Op]]:
    """The passes of distinct inputs that one run cycles through."""
    passes = 1 if smoke else POOL_PASSES[workload]
    return [build(workload, seed, index, smoke) for index in range(passes)]
