#!/usr/bin/env python3
"""SHA-256 digests of the harness CSVs over a fixed list of 80 cases.

Runs every system with every explicit method at a short t_end, adaptive
rkmk54 and cf43 runs, symplectic runs (heavytop-ext and heavytop-spatial,
each at theta 0, 1/2 and 1), one converge ladder, one ``steps`` run, runs
that set system overrides, t0 and seed, and pendulum chains of
one, six and forty links through ``geomint.harness.run`` into a temporary
directory.  Prints one digest per case (over all files the case
writes) and one over all cases, so a refactor can be checked for
byte-identical output:

    PYTHONPATH=src python scripts/csv_digest.py
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

from geomint.harness import RunConfig, run
from geomint.systems import SYSTEM_IDS

# Named here, not read from the registry, so that csv_compare.py runs
# the same cases under two trees whose registries differ.
METHOD_IDS = ("cf32a", "cf32b", "cf4", "cf43", "heun", "lie-euler", "rkmk3", "rkmk4",
              "rkmk4-2c", "rkmk54")


def cases():
    for system in SYSTEM_IDS:
        for method in METHOD_IDS:
            yield RunConfig(system=system, method=method, t_end=0.05, h=0.005)
    # heavytop-body runs the right-action dexpinv under the controller
    adaptive = (
        ("heavytop-spatial", 0.1, 0.005),
        ("heavytop-body", 0.1, 0.005),
        ("pendulum", 0.5, 0.05),
    )
    for system, t_end, h in adaptive:
        for method in ("rkmk54", "cf43"):
            yield RunConfig(system=system, method=method, mode="adaptive",
                            t_end=t_end, h=h, tol=1e-6)
    yield RunConfig(system="heavytop-ext", method="symplectic", t_end=0.7, h=0.01)
    yield RunConfig(system="heavytop-spatial", method="symplectic", t_end=0.7, h=0.01)
    for system in ("heavytop-ext", "heavytop-spatial"):
        for theta in (0.0, 1.0):
            yield RunConfig(system=system, method="symplectic", t_end=0.7, h=0.01,
                            theta=theta)
    yield RunConfig(system="heavytop-spatial", method="heun", mode="converge",
                    t_end=0.2, h=0.2)
    yield RunConfig(system="heavytop-body", method="rkmk4", t_end=0.05, steps=7)
    yield RunConfig(system="heavytop-lp", method="cf4", t0=0.5, t_end=0.6, h=0.01, seed=5,
                    overrides={"mass": 12.0, "gravity": 0.5, "length": 1.5})
    yield RunConfig(system="pendulum", method="rkmk4", t_end=0.05, h=0.005,
                    overrides={"n": 3, "length": 0.8, "gravity": 9.0})
    for n in (1, 6, 40):
        yield RunConfig(system="pendulum", method="rkmk4", t_end=0.05, h=0.005,
                        overrides={"n": n})
    yield RunConfig(system="quadrotor", method="rkmk4", t_end=0.05, h=0.005,
                    overrides={"payload_mass": 1.5, "gravity": 9.0})


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(cases()):
            case = hashlib.sha256()
            for path in run(replace(cfg, out=f"{tmp}/case{i}")):
                case.update(Path(path).read_bytes())
            total.update(case.digest())
            print(f"{case.hexdigest()}  {cfg.system} {cfg.method} {cfg.mode}")
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
