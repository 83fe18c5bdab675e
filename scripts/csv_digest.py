#!/usr/bin/env python3
"""SHA-256 digests of the harness CSVs over a fixed case list.

Runs every system with every explicit method at a short t_end, adaptive
rkmk54 and cf43 runs, one symplectic run, one converge ladder, one
``steps`` run, and runs that set system overrides, a preset, t0 and seed
through ``geomint.harness.run`` into a temporary directory.  Prints one digest
per case (over all files the case writes) and one over all cases, so a
refactor can be checked for byte-identical output:

    PYTHONPATH=src python scripts/csv_digest.py
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

from geomint.harness import RunConfig, run
from geomint.integrators import METHODS
from geomint.systems import SYSTEM_IDS


def cases():
    for system in SYSTEM_IDS:
        for method in sorted(METHODS):
            yield RunConfig(system=system, method=method, t_end=0.05, h=0.005)
    for system, t_end, h in (("heavytop-spatial", 0.1, 0.005), ("pendulum", 0.5, 0.05)):
        for method in ("rkmk54", "cf43"):
            yield RunConfig(system=system, method=method, mode="adaptive",
                            t_end=t_end, h=h, tol=1e-6)
    yield RunConfig(system="heavytop-ext", method="symplectic", t_end=0.7, h=0.01)
    yield RunConfig(system="heavytop-spatial", method="heun", mode="converge",
                    t_end=0.2, h=0.2)
    yield RunConfig(system="heavytop-body", method="rkmk4", t_end=0.05, steps=7)
    yield RunConfig(system="heavytop-lp", method="cf4", t0=0.5, t_end=0.6, h=0.01,
                    seed=5, preset="bruls-top",
                    overrides={"mass": 12.0, "gravity": 0.5, "length": 1.5})
    yield RunConfig(system="pendulum", method="rkmk4", t_end=0.05, h=0.005,
                    overrides={"n": 3, "length": 0.8, "gravity": 9.0})
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
