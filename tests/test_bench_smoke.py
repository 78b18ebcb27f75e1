"""The benchmark under bench/ still runs and its output checks still pass.

Imports bench/workloads.py and bench/tracing.py in-process, runs every
workload's smoke pool, one traced pass of three of them, and one full-size
tail_batches pass (eight sample_qs/sample_lqs batches of m = 2000 on shapes
far below 1).
"""

import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_checked(ops, tracer):
    """Run each op and return (name, detail) of every op whose check failed."""
    failed = []
    for op in ops:
        outcome = op.check(op.run(tracer))
        if not outcome.ok:
            failed.append((op.name, outcome.detail))
    return failed


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pool_passes_its_checks(workload):
    pool = workloads.build_pool(workload, seed=1, smoke=True)
    ops = [op for ops in pool for op in ops]
    assert ops
    assert run_checked(ops, tracing.NullTracer()) == []


def test_full_size_tail_batches_pass_their_checks():
    ops = workloads.build("tail_batches", seed=1, pass_index=0, smoke=False)
    assert len(ops) == 8
    assert run_checked(ops, tracing.NullTracer()) == []


# Uniform draws of one traced smoke pass at seed 1: (calls, points).  The
# tracer counts a call of a wrapped generator name and the size of the first
# array it returns, so a dispatch that bypasses those names, or a result
# without the uniforms first, changes the counts.  is_study draws each of its
# six studies' 40 replicates of m = 10 in one call.
UNIFORM_DRAWS = {"is_study": (6, 2400), "uniform_checks": (5, 60_000),
                 "tail_batches": (8, 160)}


@pytest.mark.parametrize("workload", sorted(UNIFORM_DRAWS))
def test_traced_pass_records_every_layer(workload):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        failed = run_checked(workloads.build(workload, 1, 0, smoke=True), tracer)
    finally:
        restore()
    assert failed == []
    metrics = tracing.layer_metrics(tracer.spans, passes=1)
    draws = (metrics["sampling.uniform_calls"][0], metrics["sampling.uniform_points"][0])
    assert draws == UNIFORM_DRAWS[workload]
    if workload == "is_study":
        assert metrics["distributions.quantile_calls"][0] > 0
        assert metrics["estimators.replicates"][0] > 0
    assert all(math.isfinite(value) for value, _ in metrics.values())
