"""Smoke self-test of the benchmark: every workload at tiny sizes.

    python3 bench/selftest.py

Runs ``run.py --smoke`` for each workload of ``BENCHMARK.json`` with tracing
off and on, and checks that the last stdout line has exactly the result
schema and every declared metric with its declared unit.  It also checks
that the predictions in ``workloads.PREDICTIONS`` name declared metrics and
workloads, and that the benchmark fails cleanly, without printing a result,
in a directory holding only ``BENCHMARK.json`` and the benchmark itself.
Exits 0 when everything holds.
"""

from __future__ import annotations

import fnmatch
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def check_result(line: str, declared: list[dict]) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1):
        problems.append(f"attempted={attempted!r}")
    if not (isinstance(failed, int) and 0 <= failed <= (attempted or 0)):
        problems.append(f"failed={failed!r}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(set(metrics) ^ set(names))} differ from declared")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, declared {m['unit']!r}")
        value = got.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{m['name']} value {value!r}")
    return problems


def check_predictions(spec: dict) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import PREDICTIONS, SEED_SHARES, WORKLOADS

    problems = []
    layer_names = [m["name"] for m in spec["per_layer"]]
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    if workload_names != set(WORKLOADS):
        problems.append(f"workloads {sorted(workload_names ^ set(WORKLOADS))} undeclared")
    for key, prediction in PREDICTIONS.items():
        for pattern in key.split(", "):
            if not fnmatch.filter(layer_names, pattern):
                problems.append(f"prediction {pattern!r} matches no per-layer metric")
        problems += [f"prediction moves unknown {m!r}"
                     for m in prediction["moves"] if m not in e2e_names]
        for field in ("on", "little_on", "flat_on"):
            problems += [f"prediction names unknown workload {w!r}"
                         for w in prediction.get(field, []) if w != "*"
                         and w not in workload_names]
    for workload, shares in SEED_SHARES.items():
        problems += [f"seed share of unknown {workload!r} or {name!r}"
                     for name in shares if workload not in workload_names
                     or name not in layer_names]
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """The benchmark must fail, without a result, where qstrat is absent."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_predictions(spec) + check_bare_directory(spec)
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            label = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                found = [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
            else:
                found = check_result(proc.stdout.strip().splitlines()[-1], declared)
            problems += [f"{label}: {p}" for p in found]
            print(f"{'FAIL' if found else 'ok'} {label}", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
