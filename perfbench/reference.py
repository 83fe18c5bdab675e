#!/usr/bin/env python3
"""Measure ROADMAP item 1's reference points on this source tree.

    python3 perfbench/reference.py

Prints one line per point: the figure ROADMAP records and the one
measured here, each the fastest of several repeats (the machine's
speed drifts, see README.md).  Kernels are timed on fixed random arguments,
steps by ``fixed_integrate`` with the public steppers.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from geomint.integrators import METHODS, fixed_integrate
from geomint.lie import dexpinv_se3, exp_se3, exp_so3
from geomint.systems import get_system

REPEATS = 7


def fastest(fn, calls):
    """Fastest per-call seconds over REPEATS batches of ``calls`` calls."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (perf_counter() - t0) / calls)
    return best


def step_time(system_id, h, steps, **overrides):
    system = get_system(system_id, **overrides)
    stepper = METHODS["rkmk4"].stepper

    def run():
        fixed_integrate(system.action, system.field, stepper, system.initial,
                        0.0, h * steps, steps)

    return fastest(run, 1) / steps


def main():
    rng = np.random.default_rng(0)
    u, x, y = rng.normal(size=3) * 0.3, rng.normal(size=6) * 0.3, rng.normal(size=6)
    points = [
        ("exp_so3", "10-15 us", 1e6 * fastest(lambda: exp_so3(u), 2000), "us"),
        ("exp_se3", "23 us", 1e6 * fastest(lambda: exp_se3(x), 2000), "us"),
        ("dexpinv_se3", "37 us", 1e6 * fastest(lambda: dexpinv_se3(x, y), 2000), "us"),
        ("rkmk4 step, heavytop-spatial", "340 us",
         1e6 * step_time("heavytop-spatial", 0.005, 200), "us"),
        ("rkmk4 step, pendulum N=10", "6.5 ms", 1e3 * step_time("pendulum", 0.01, 50, n=10), "ms"),
        ("rkmk4 step, quadrotor", "1.8 ms", 1e3 * step_time("quadrotor", 0.01, 100), "ms"),
    ]
    for name, ref, value, unit in points:
        print(f"{name:30s} reference {ref:>9s}  measured {value:8.3g} {unit}")


if __name__ == "__main__":
    main()
