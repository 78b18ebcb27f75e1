"""Command line interface.

Subcommands
-----------
sample      Draw one IID/QS/LQS batch from a named distribution.
theory      Emit the closed-form moments, MSEs and spacing laws as JSON.
experiment  Run a reproducible experiment (moment_check, qq_export,
            mse_grid, spacing_check, importance_study).

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
Seed precedence: --seed > a config file's seed > QSTRAT_SEED > the default 42.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import stat
import sys
from collections.abc import Iterable

from . import theory
from .distributions import distribution_from_name
from .errors import DomainError, QstratError, check_int
from .experiments import (
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    Table,
    config_from_mapping,
    render_chunks,
    report_to_json,
    run_experiment,
)
from .sampling import METHODS, sample, sample_size


def _default_seed() -> int:
    env = os.environ.get("QSTRAT_SEED", str(DEFAULT_SEED))
    try:
        seed = int(env)
    except ValueError:
        raise DomainError(f"QSTRAT_SEED must be an integer, got {env!r}") from None
    return check_int(seed, "QSTRAT_SEED", low=0)


def _number_list(kind, what: str):
    """An argparse ``type`` reading comma-separated ``kind`` values as a tuple;
    empty text means the flag was not given (None)."""
    def parse(text: str):
        if not text:
            return None
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {what} list, got {text!r}") from None
    return parse


_floats = _number_list(float, "number")
_ints = _number_list(int, "integer")


def _check_output_path(path: str | None) -> None:
    """Raise a usage error, before any work runs, for an output path that is
    empty, a directory or in a missing one (other write failures exit 2)."""
    if path == "":
        raise DomainError("output path is empty")
    if path is not None and os.path.isdir(path):
        raise DomainError(f"output path {path!r} is a directory")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise DomainError(f"the directory of output path {path!r} does not exist")


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks one by one to ``path``, or to stdout when it is None.
    If writing to ``path`` fails, a regular file there is removed before the
    error is raised again, so that no truncated artifact is left."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:  # closing flushes, which can fail too
            fh.writelines(chunks)
    except BaseException:
        # A symlink such as /dev/stdout, or a device or pipe, is left alone.
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    params = args.params or ()
    dist = distribution_from_name(args.dist, params)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.method != "lqs" and args.m is None:
        raise DomainError("--m is required for iid and qs sampling")
    batch = sample(dist, args.method, args.m, seed=seed, layers=args.layers)

    if args.format == "json":
        payload = {
            "method": batch.method,
            "dist": args.dist,
            "params": list(params),
            "m": batch.m,
            "seed": batch.seed,
            "layers": list(batch.layers.sizes) if batch.layers else None,
            "uniforms": batch.uniforms.tolist(),
            "blocks": batch.blocks.tolist(),
            "values": batch.values.tolist(),
        }
        if batch.layer_index is not None:
            payload["layer_index"] = batch.layer_index.tolist()
        _write_output([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.output_path)
    else:
        columns = {
            "index": list(range(1, batch.m + 1)),
            "block": batch.blocks,
            "uniform": batch.uniforms,
            "value": batch.values,
        }
        if batch.layer_index is not None:
            columns["layer"] = batch.layer_index
        _write_output(render_chunks(ExperimentResult({}, Table(columns)), "csv"),
                      args.output_path)
    return 0


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def _cmd_theory(args) -> int:
    _, m = sample_size("qs", args.m)
    out: dict = {"m": m}
    if m >= 2:
        out["qs_moments"] = dataclasses.asdict(theory.qs_uniform_moments(m))
    if args.layers is not None:
        _, spec = sample_size("lqs", m, args.layers)
        out["layers"] = list(spec.sizes)
        out["lqs_moments"] = dataclasses.asdict(theory.lqs_uniform_moments(spec))
        out["adjustment_factor"] = theory.adj_factor(spec)
    if args.k is not None:
        k = args.k
        t_iid, t_qs = theory.quantile_targets(m, k)
        out["k"] = k
        out["quantile_targets"] = {"iid": t_iid, "qs": t_qs}
        out["order_stat_moments"] = {
            method: dict(zip(("mean", "variance"), theory.order_stat_moments(m, k, method)))
            for method in ("iid", "qs")
        }
        out["mse"] = {
            f"method_{method}_target_{target}": theory.mse_exact(m, k, target, method)
            for method in ("iid", "qs")
            for target in ("iid", "qs")
        }
    if args.ell is not None:
        out["ell"] = args.ell
        out["spacing_laws"] = {
            method: dataclasses.asdict(theory.spacing_law(m, args.ell, method))
            for method in ("iid", "qs")
        }
    _write_output([json.dumps(out, indent=2, sort_keys=True) + "\n"], args.output_path)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _cmd_experiment(args) -> int:
    if args.config is None and args.experiment is None:
        raise DomainError("--name (or --config) is required")
    mapping = {}
    if args.config is not None:
        if os.path.isdir(args.config) or not os.path.exists(args.config):
            raise DomainError(f"config file {args.config!r} does not exist or is a directory")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                mapping = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise DomainError(f"config file {args.config!r} is not valid JSON: {exc}") from None
    if isinstance(mapping, dict):  # config_from_mapping rejects anything else
        # The flags given win over the file, and QSTRAT_SEED is read only
        # when neither sets the seed.
        mapping.update((name, value) for name, value in vars(args).items()
                       if name in ExperimentConfig.__dataclass_fields__ and value is not None)
        if "seed" not in mapping:
            mapping["seed"] = _default_seed()
    cfg = config_from_mapping(mapping)
    _check_output_path(cfg.output_path)  # a config file may set it
    result = run_experiment(cfg)
    _write_output(render_chunks(result, cfg.format), cfg.output_path)
    if cfg.output_path is not None:
        # Artifact went to a file; surface the report on stdout.
        sys.stdout.write(report_to_json(result, include_rows=False))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstrat",
        description="Quantile-stratified sampling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw one sample batch")
    p_sample.add_argument("--dist", default="uniform",
                          help="uniform | normal | beta | gamma | discrete")
    p_sample.add_argument("--params", type=_floats, default=None,
                          help="comma-separated distribution parameters")
    p_sample.add_argument("--method", default="qs", choices=METHODS)
    p_sample.add_argument("--m", type=int, default=None, help="sample size")
    p_sample.add_argument("--layers", type=_ints, default=None,
                          help="comma-separated LQS layer sizes")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--format", default="csv", choices=("csv", "json"))
    p_sample.set_defaults(func=_cmd_sample)

    p_theory = sub.add_parser("theory", help="emit closed-form results as JSON")
    p_theory.add_argument("--m", type=int, required=True)
    p_theory.add_argument("--k", type=int, default=None, help="order statistic index")
    p_theory.add_argument("--ell", type=int, default=None, help="spacing lag")
    p_theory.add_argument("--layers", type=_ints, default=None,
                          help="comma-separated LQS layer sizes")
    p_theory.set_defaults(func=_cmd_theory)

    p_exp = sub.add_parser("experiment", help="run a reproducible experiment")
    # Destinations are the ExperimentConfig field names the flags set.
    p_exp.add_argument("--name", dest="experiment", default=None,
                       choices=tuple(sorted(EXPERIMENTS)))
    p_exp.add_argument("--config", default=None, help="JSON config file")
    p_exp.add_argument("--dist", default=None)
    p_exp.add_argument("--params", type=_floats, default=None)
    p_exp.add_argument("--m", type=int, default=None)
    p_exp.add_argument("--layers", type=_ints, default=None)
    p_exp.add_argument("--replicates", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--format", default=None, choices=("csv", "json"))
    p_exp.add_argument("--example", default=None,
                       help="benchmark integral for importance_study (a or b)")
    p_exp.add_argument("--ell", type=_ints, default=None,
                       help="comma-separated spacing lags for spacing_check")
    p_exp.set_defaults(func=_cmd_experiment)
    for p in (p_sample, p_theory, p_exp):  # main checks it before any work runs
        p.add_argument("--out", dest="output_path", default=None, help="default stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_output_path(args.output_path)
        return args.func(args)
    except QstratError as exc:
        print(f"qstrat: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"qstrat: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
