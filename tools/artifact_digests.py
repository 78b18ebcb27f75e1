"""Print one sha256 line per qstrat artifact, so two checkouts can be
compared byte for byte.

Usage::

    python tools/artifact_digests.py [SOURCE_ROOT]

SOURCE_ROOT is a qstrat checkout; its ``src`` directory is imported, and it
defaults to the checkout holding this script.  Running the script on two
checkouts (say, a change and its parent) and diffing the outputs shows
every artifact whose bytes differ.  The artifacts are:

* every experiment's CSV and JSON (importance_study for both examples,
  qq_export for two families, LQS layers where an experiment takes them),
  and a qq_export of 60,000 rows (Gamma(2, 5), m = 1000, 20 replicates),
  whose 30 row groups of 2,000 rows render the columns that repeat from
  group to group through the baked template,
* ``qstrat sample`` CSV and JSON for each family and method, LQS also with
  a single layer and with all-unit layers, and Beta(0.01, 3) and
  Gamma(0.05, 1) besides, whose values come from the tail inversions
  of shapes far below 1,

each at seeds 1, 7 and 12345, and ``qstrat theory`` with ``--k``, ``--ell``
and ``--layers`` (it takes no seed).  Each line is the digest, the exit
code and the command.  Every line is printed; the script then exits 1 if
any command exited non-zero, and 0 otherwise.  The script uses the
standard library only; qstrat itself needs numpy and scipy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

SEEDS = (1, 7, 12345)
EXPERIMENTS = (
    ("--name", "moment_check", "--layers", "10,20"),
    ("--name", "qq_export", "--dist", "normal", "--params", "0,1"),
    ("--name", "qq_export", "--dist", "gamma", "--params", "2,5", "--layers", "10,20"),
    ("--name", "qq_export", "--dist", "gamma", "--params", "2,5", "--m", "1000",
     "--layers", "500,300,200", "--replicates", "20"),
    ("--name", "mse_grid"),
    ("--name", "spacing_check"),
    ("--name", "importance_study", "--example", "a"),
    ("--name", "importance_study", "--example", "b", "--layers", "10,20"),
)
FAMILIES = (
    ("--dist", "uniform"),
    ("--dist", "normal", "--params", "1,2"),
    ("--dist", "beta", "--params", "0.5,2"),
    ("--dist", "gamma", "--params", "0.3,5"),
    ("--dist", "beta", "--params", "0.01,3"),
    ("--dist", "gamma", "--params", "0.05,1"),
    ("--dist", "discrete", "--params", "0,0.2,1,0.5,3,0.3"),
)
SAMPLE_SIZES = (
    ("--method", "iid", "--m", "40"),
    ("--method", "qs", "--m", "40"),
    ("--method", "lqs", "--layers", "5,15,20"),
    ("--method", "lqs", "--layers", "40"),
    ("--method", "lqs", "--layers", "1,1,1,1,1,1,1,1"),
)
THEORY = (
    ("--m", "12", "--k", "4", "--ell", "3", "--layers", "4,8"),
    ("--m", "10", "--ell", "1"),
)


def commands():
    """Every CLI argument list whose output is hashed."""
    for seed in SEEDS:
        for fmt in ("csv", "json"):
            tail = ("--seed", str(seed), "--format", fmt)
            for args in EXPERIMENTS:
                yield ("experiment", *args, *tail)
            for family in FAMILIES:
                for size in SAMPLE_SIZES:
                    yield ("sample", *family, *size, *tail)
    for args in THEORY:
        yield ("theory", *args)


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import qstrat.cli

    if not Path(qstrat.cli.__file__).resolve().is_relative_to(root):
        print(f"qstrat was imported from {qstrat.cli.__file__}, not from {root}",
              file=sys.stderr)
        return 1
    failed = 0
    for cmd in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qstrat.cli.main(list(cmd))
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        print(f"{digest}  exit={code}  qstrat {' '.join(cmd)}")
        failed += code != 0
    if failed:
        print(f"{failed} command(s) exited non-zero", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
