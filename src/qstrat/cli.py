"""Command line interface.

Subcommands
-----------
sample      Draw one IID/QS/LQS batch from a named distribution.
theory      Emit the closed-form moments, MSEs and spacing laws as JSON.
experiment  Run a reproducible experiment (moment_check, qq_export,
            mse_grid, spacing_check, importance_study).

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
The environment variable QSTRAT_SEED overrides the built-in default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import theory
from .distributions import distribution_from_name
from .errors import DomainError, QstratError, check_int
from .experiments import (
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    Table,
    apply_overrides,
    config_from_mapping,
    render_artifact,
    report_to_json,
    rows_to_csv,
    run_experiment,
)
from .sampling import METHODS, sample, sample_size


def _default_seed() -> int:
    env = os.environ.get("QSTRAT_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        seed = int(env)
    except ValueError:
        raise DomainError(f"QSTRAT_SEED must be an integer, got {env!r}") from None
    return check_int(seed, "QSTRAT_SEED", low=0)


def _parse_floats(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated number list, got {text!r}") from None


def _parse_ints(text: str | None) -> tuple[int, ...] | None:
    if not text:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}") from None


def _check_output_path(path: str | None) -> None:
    """Raise a usage error, before any work runs, for an output path that is
    a directory or lies in a missing one (other write failures exit 2)."""
    if path is not None and os.path.isdir(path):
        raise DomainError(f"output path {path!r} is a directory")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise DomainError(f"the directory of output path {path!r} does not exist")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    dist = distribution_from_name(args.dist, _parse_floats(args.params))
    seed = args.seed if args.seed is not None else _default_seed()
    if args.method != "lqs" and args.m is None:
        raise DomainError("--m is required for iid and qs sampling")
    batch = sample(dist, args.method, args.m, seed=seed, layers=_parse_ints(args.layers))

    if args.format == "json":
        payload = {
            "method": batch.method,
            "dist": args.dist,
            "params": list(_parse_floats(args.params)),
            "m": batch.m,
            "seed": batch.seed,
            "layers": list(batch.layers.sizes) if batch.layers else None,
            "uniforms": batch.uniforms.tolist(),
            "blocks": batch.blocks.tolist(),
            "values": batch.values.tolist(),
        }
        if batch.layer_index is not None:
            payload["layer_index"] = batch.layer_index.tolist()
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        columns = {
            "index": list(range(1, batch.m + 1)),
            "block": batch.blocks,
            "uniform": batch.uniforms,
            "value": batch.values,
        }
        if batch.layer_index is not None:
            columns["layer"] = batch.layer_index
        _write_output(rows_to_csv(Table(columns)), args.out)
    return 0


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def _cmd_theory(args) -> int:
    _, m = sample_size("qs", args.m)
    layers = _parse_ints(args.layers)
    out: dict = {"m": m}
    if m >= 2:
        out["qs_moments"] = dataclasses.asdict(theory.qs_uniform_moments(m))
    if layers is not None:
        _, spec = sample_size("lqs", m, layers)
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
    _write_output(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _cmd_experiment(args) -> int:
    if args.config is not None:
        if os.path.isdir(args.config) or not os.path.exists(args.config):
            raise DomainError(f"config file {args.config!r} does not exist or is a directory")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                mapping = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise DomainError(f"config file {args.config!r} is not valid JSON: {exc}") from None
        if args.name is not None and isinstance(mapping, dict):
            mapping["experiment"] = args.name
        cfg = config_from_mapping(mapping)
    else:
        if args.name is None:
            raise DomainError("--name (or --config) is required")
        cfg = ExperimentConfig(experiment=args.name, seed=_default_seed())
    cfg = apply_overrides(
        cfg,
        dist=args.dist,
        params=_parse_floats(args.params) if args.params else None,
        m=args.m,
        layers=_parse_ints(args.layers),
        replicates=args.replicates,
        seed=args.seed,
        output_path=args.out,
        format=args.format,
        example=args.example,
        ell=_parse_ints(args.ell),
    )
    _check_output_path(cfg.output_path)  # a config file may set it
    result = run_experiment(cfg)
    artifact = render_artifact(result, cfg.format)
    _write_output(artifact, cfg.output_path)
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
    sub = parser.add_subparsers(dest="command")

    p_sample = sub.add_parser("sample", help="draw one sample batch")
    p_sample.add_argument("--dist", default="uniform",
                          help="uniform | normal | beta | gamma | discrete")
    p_sample.add_argument("--params", default="",
                          help="comma-separated distribution parameters")
    p_sample.add_argument("--method", default="qs", choices=METHODS)
    p_sample.add_argument("--m", type=int, default=None, help="sample size")
    p_sample.add_argument("--layers", default=None,
                          help="comma-separated LQS layer sizes")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None, help="output path (default stdout)")
    p_sample.add_argument("--format", default="csv", choices=("csv", "json"))
    p_sample.set_defaults(func=_cmd_sample)

    p_theory = sub.add_parser("theory", help="emit closed-form results as JSON")
    p_theory.add_argument("--m", type=int, required=True)
    p_theory.add_argument("--k", type=int, default=None, help="order statistic index")
    p_theory.add_argument("--ell", type=int, default=None, help="spacing lag")
    p_theory.add_argument("--layers", default=None,
                          help="comma-separated LQS layer sizes")
    p_theory.add_argument("--out", default=None)
    p_theory.set_defaults(func=_cmd_theory)

    p_exp = sub.add_parser("experiment", help="run a reproducible experiment")
    p_exp.add_argument("--name", default=None, choices=tuple(sorted(EXPERIMENTS)))
    p_exp.add_argument("--config", default=None, help="JSON config file")
    p_exp.add_argument("--dist", default=None)
    p_exp.add_argument("--params", default=None)
    p_exp.add_argument("--m", type=int, default=None)
    p_exp.add_argument("--layers", default=None)
    p_exp.add_argument("--replicates", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--format", default=None, choices=("csv", "json"))
    p_exp.add_argument("--example", default=None,
                       help="benchmark integral for importance_study (a or b)")
    p_exp.add_argument("--ell", default=None,
                       help="comma-separated spacing lags for spacing_check")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_output_path(args.out)
        return args.func(args)
    except QstratError as exc:
        print(f"qstrat: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"qstrat: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
