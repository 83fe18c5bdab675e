#!/usr/bin/env python3
"""geomint benchmark: seeded sweeps of ``harness.run`` cases, and a
traced run per module.

    python3 perfbench/run.py --workload top-fixed --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; ``src/geomint`` is imported from
there, never from an installed copy, and the run exits with status 2
when it is missing.  Workloads: ``top-fixed``, ``multibody``,
``top-implicit`` (see perfbench/README.md).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the run's metadata (case list, environment, per-case
outcomes), which is also written to ``.perfbench-out/``.
"""

import os

# One BLAS thread; set before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("top-fixed", "multibody", "top-implicit")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="geomint benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geomint" / "__init__.py").is_file():
        print(f"error: no geomint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geomint

    if Path(geomint.__file__).resolve().parent != SRC / "geomint":
        print(f"error: geomint imported from {geomint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
