"""qstrat benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload is_study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, nothing needs to be installed or built.  The process is single
threaded (BLAS and OpenMP thread variables are set to 1 before numpy loads).

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` every pass runs untraced and then traced; the traced
passes give the per-layer metrics, and the median over passes of the traced
minus the untraced pass time is ``trace.overhead_s``.

Each run draws a fixed pool of inputs from ``--seed`` (``POOL_PASSES``
passes, see ``workloads.py``) and cycles through its ops until ``--seconds``
have gone by and every op of the pool has run at least once.  Outputs are
checked after every op, outside its timing.  ``attempted`` counts the
distinct inputs (pool pass, op), ``failed`` those that raised or failed
their check, and ``ok_frac`` is the share that did neither; all three depend
on the seed alone.  ``correct`` says whether every repeat of an input
reproduced the artifact digest of its first run.

End-to-end metrics: ``setup_s`` is the median over fresh interpreters of the
time to import qstrat and build the inputs; ``wall_s`` the time of one
pass with every kind of op at its median time; ``op_p50_s`` the median of
those kinds' medians; ``op_tail_s`` the highest percentile of op times with
at least ten ops beyond it (the median of the slowest kind of op when there
are fewer than twenty ops); ``points_per_s``
the sample points of an average pass of the pool per second of ``wall_s``;
``peak_rss_mb`` the peak resident memory of this process.

The last line of stdout is one JSON object; the lines before it give every
metric by name and unit, the provenance and the op counts.  Per-op records,
artifact digests and the trace spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("is_study", "uniform_checks", "tail_batches", "qq_artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one probe each, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import qstrat, build the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up and import probes, each in a fresh interpreter
# ---------------------------------------------------------------------------

def setup_seconds(args, probes: int) -> list[float]:
    """Fresh interpreter to qstrat imported and inputs built, per probe."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return times


def import_seconds(probes: int) -> dict[str, float]:
    """Median cumulative import times of ``qstrat`` and of ``scipy.stats``
    under it, from ``python -X importtime -c "import qstrat"``.

    scipy loads ``scipy.stats`` lazily, so its own line may be missing; its
    cost is the sum over the outermost ``scipy.stats*`` modules.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    found = {"qstrat": [], "scipy.stats": []}
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qstrat"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        rows = []  # (name, depth, cumulative seconds), children before parents
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                rows.append((name.strip(), len(name) - len(name.lstrip()),
                             int(parts[1]) * 1e-6))
        qstrat_s = stats_s = 0.0
        for i, (name, depth, cumulative) in enumerate(rows):
            parent = next((r[0] for r in rows[i + 1:] if r[1] < depth), "")
            if name == "qstrat":
                qstrat_s = cumulative
            elif name.split(".")[:2] == ["scipy", "stats"] and \
                    parent.split(".")[:2] != ["scipy", "stats"]:
                stats_s += cumulative
        found["qstrat"].append(qstrat_s)
        found["scipy.stats"].append(stats_s)
    return {name: statistics.median(values) for name, values in found.items()}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def run_op(op, tracer):
    """Run one op under its timing, then check its output outside it.
    Returns the op's seconds and the check's ``Outcome``."""
    from workloads import Outcome

    error = output = None
    with tracer.span("op"):
        t0 = perf_counter()
        try:
            output = op.run(tracer)
        except Exception as exc:  # an op failure is a measured outcome
            error = exc
        elapsed = perf_counter() - t0
    if error is not None:
        return elapsed, Outcome(False, 0, f"error:{type(error).__name__}", str(error))
    try:
        return elapsed, op.check(output)
    except Exception:
        return elapsed, Outcome(False, 0, "check-error", traceback.format_exc(limit=3))


def run_one(index: int, op, tracer) -> dict:
    """Run op ``op`` of pool pass ``index`` after a collection; its record."""
    gc.collect()
    elapsed, outcome = run_op(op, tracer)
    return {"input": index, "op": op.name, "seconds": elapsed, "ok": outcome.ok,
            "points": outcome.points, "digest": outcome.digest, "detail": outcome.detail}


def run_timed(pool, seconds: float, tracer) -> list[dict]:
    """Cycle through the pool's ops until ``seconds`` have gone by and every
    op of the pool has run at least once; return one record per op run."""
    flat = [(index, op) for index, ops in enumerate(pool) for op in ops]
    records = []
    start = perf_counter()
    for i in itertools.count():
        records.append(run_one(*flat[i % len(flat)], tracer))
        if i + 1 >= len(flat) and perf_counter() - start >= seconds:
            return records


def run_traced(pool, seconds: float, null, tracing):
    """Cycle through the pool's passes, each run untraced and then traced so
    both runs see the same machine state, until ``seconds`` have gone by and
    every pass has run.  Returns all records, the traced and untraced pass
    times, and the tracer."""
    tracer = tracing.Tracer()
    records, walls, untraced = [], [], []
    start = perf_counter()
    for n in itertools.count():
        index = n % len(pool)
        plain = [run_one(index, op, null) for op in pool[index]]
        restore = tracing.install(tracer)
        try:
            traced = [run_one(index, op, tracer) for op in pool[index]]
        finally:
            restore()
        records += plain + traced
        untraced.append(sum(r["seconds"] for r in plain))
        walls.append(sum(r["seconds"] for r in traced))
        if n + 1 >= len(pool) and perf_counter() - start >= seconds:
            return records, walls, untraced, tracer


def outcomes(records, pool, null) -> tuple[int, int, bool]:
    """Distinct inputs (pool pass, op) attempted and failed, and whether every
    repeat of an input reproduced the artifact digest of its first run.

    Counting inputs rather than repeats makes both counts a function of the
    seed alone.  When no input ran twice, the first op is run once more.
    """
    first, failed, reproduced = {}, set(), True
    for r in records:
        key = (r["input"], r["op"])
        if not r["ok"]:
            failed.add(key)
        if key in first:
            reproduced &= r["digest"] == first[key]
        else:
            first[key] = r["digest"]
    if len(first) == len(records):
        reproduced = run_one(0, pool[0][0], null)["digest"] == records[0]["digest"]
    return len(first), len(failed), reproduced


def tail_value(records) -> tuple[float, str]:
    """Highest percentile of the op times with at least ten ops beyond it.

    Below twenty ops that percentile would sit under the median, so the tail
    is then the median time of the slowest kind of op instead.
    """
    ordered = sorted(r["seconds"] for r in records)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops"
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["seconds"])
    slowest = max(by_op, key=lambda name: statistics.median(by_op[name]))
    return (statistics.median(by_op[slowest]),
            f"median of {len(by_op[slowest])} {slowest} ops ({n} ops in all)")


def end_to_end(records, passes: int, attempted: int, failed: int, setup_times) -> dict:
    """End-to-end metrics from the median time of each kind of op.

    ``wall_s`` is one pass with every kind of op at its median time, and
    ``points_per_s`` the points of an average pass of the pool over it.
    ``op_p50_s`` is the median of the kinds' medians, which stays between
    the same two kinds when a workload mixes fast and slow ones.
    """
    by_op, points = {}, {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["seconds"])
        points.setdefault((r["input"], r["op"]), r["points"])
    medians = [statistics.median(times) for times in by_op.values()]
    wall = sum(medians)
    tail, tail_label = tail_value(records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(medians), "s"),
        "op_tail_s": (tail, "s"),
        "points_per_s": (sum(points.values()) / passes / wall, "1/s"),
        "ok_frac": (1 - failed / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, tail_label


def provenance(args, records) -> dict:
    import numpy
    import scipy

    first = {}
    for r in records:
        if r["input"] == 0:
            first.setdefault(r["op"], r["digest"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pass0_sha256": hashlib.sha256("".join(first.values()).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qstrat" / "__init__.py").is_file():
        print(f"qstrat sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        import workloads

        workloads.build_pool(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    import qstrat
    import tracing
    import workloads

    if Path(qstrat.__file__).resolve().parent != SRC / "qstrat":
        print(f"imported qstrat from {qstrat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    null = tracing.NullTracer()
    run_timed(workloads.build_pool(args.workload, args.seed, True), 0.0, null)  # warm-up
    pool = workloads.build_pool(args.workload, args.seed, args.smoke)

    if args.trace == 0:
        setup_times = setup_seconds(args, 1 if args.smoke else SETUP_PROBES)
        records = run_timed(pool, args.seconds, null)
        attempted, failed, reproduced = outcomes(records, pool, null)
        metrics, tail_label = end_to_end(records, len(pool), attempted, failed, setup_times)
        runs = f"{len(records)} op runs"
        spans = []
    else:
        records, walls, untraced, tracer = run_traced(pool, args.seconds, null, tracing)
        attempted, failed, reproduced = outcomes(records, pool, null)
        spans = tracer.spans
        imports = import_seconds(1 if args.smoke else IMPORT_PROBES)
        metrics = tracing.layer_metrics(spans, len(walls))
        metrics["import.qstrat_s"] = (imports["qstrat"], "s")
        metrics["import.scipy_stats_s"] = (imports["scipy.stats"], "s")
        overhead = statistics.median(t - u for t, u in zip(walls, untraced))
        metrics["trace.overhead_s"] = (overhead, "s")
        runs = f"{len(walls)} passes untraced and traced"
        tail_label = None
    info = provenance(args, records)

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    t0 = spans[0].start if spans else 0.0
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "records": records,
                   "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.items, s.error]
                             for s in spans]}, fh)

    failures = {}
    for r in records:
        if not r["ok"]:
            failures.setdefault(r["op"], [set(), r["detail"]])[0].add(r["input"])
    for op_name, (inputs, detail) in failures.items():
        print(f"failed on {len(inputs)} inputs {op_name}: {detail.strip()}", file=sys.stderr)

    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"inputs attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.4f}), {runs}"
          + (f", op_tail_s is the {tail_label}" if tail_label else "")
          + f", repeats reproduced their digests: {reproduced}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": reproduced,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
