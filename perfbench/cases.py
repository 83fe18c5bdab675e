"""Seeded case lists for the three workloads.

A case is one ``geomint.harness.RunConfig``; the program under test
receives nothing else.  The seed only draws continuous parameters
(masses, link lengths, payload masses), each by Latin-hypercube
stratification over the cases of a workload.  The discrete structure
(systems, methods, steps, chain lengths) is fixed, so the work in one
sweep, and with it ``solve_s``, hardly depends on the seed, while
every seed still gives a different set of trajectories.

Importing this module imports ``geomint``; ``run.py`` times that as
part of the set-up.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from geomint.harness import RunConfig
from geomint.systems.heavytop import BRULS_TOP

WORKLOADS = ("top-fixed", "multibody", "top-implicit")

TOP_SYSTEMS = ("heavytop-body", "heavytop-spatial", "heavytop-lp", "heavytop-ext")
TOP_METHODS = ("rkmk3", "rkmk4", "rkmk4-2c", "cf4", "cf43", "rkmk54")
# Both steps are in the asymptotic regime of the fast Bruls top; at
# h = 0.01 rkmk54 already loses 15% of the energy.
TOP_STEPS = (0.0025, 0.005)
TOP_T_END = 0.5

# (method, links): one small and one larger chain for the 5(4) pair,
# and one for cf43, whose ambient-norm estimate needs several times as
# many steps at the same tol.
PENDULUM_SLOTS = (("rkmk54", 3), ("rkmk54", 6), ("cf43", 4))
PENDULUM_T_END = 2.5  # past the stiff passage near t = 2.2
QUADROTOR_CASES = 4

IMPLICIT_SYSTEMS = ("heavytop-ext", "heavytop-spatial")
IMPLICIT_THETAS = (0.5, 0.5, 0.0, 1.0)
IMPLICIT_T_END = 0.5


def _stratified(rng: np.random.Generator, n: int, centre: float, rel: float, jitter=True):
    """n draws within centre * (1 +- rel), one per equal-width stratum,
    strata assigned to cases in a random order; without jitter each
    draw sits at its stratum's centre."""
    u = (rng.permutation(n) + (rng.random(n) if jitter else 0.5)) / n
    return centre * (1.0 + rel * (2.0 * u - 1.0))


def _top_fixed(rng):
    grid = list(itertools.product(TOP_SYSTEMS, TOP_METHODS, TOP_STEPS))
    masses = _stratified(rng, len(grid), BRULS_TOP.mass, 0.1)
    lengths = _stratified(rng, len(grid), BRULS_TOP.length, 0.1)
    return [
        RunConfig(
            system=system,
            method=method,
            h=h,
            t_end=TOP_T_END,
            overrides={"mass": float(m), "length": float(L)},
        )
        for (system, method, h), m, L in zip(grid, masses, lengths)
    ]


def _multibody(rng):
    lengths = _stratified(rng, len(PENDULUM_SLOTS), 1.0, 0.1)
    payloads = _stratified(rng, QUADROTOR_CASES, 1.0, 0.1)
    cases = [
        RunConfig(
            system="pendulum",
            method=method,
            mode="adaptive",
            h=0.05,
            tol=1e-6,
            t_end=PENDULUM_T_END,
            overrides={"n": n, "length": float(L)},
        )
        for (method, n), L in zip(PENDULUM_SLOTS, lengths)
    ]
    cases += [
        RunConfig(
            system="quadrotor",
            method="rkmk4",
            h=0.01,
            t_end=1.0,
            overrides={"payload_mass": float(m)},
        )
        for m in payloads
    ]
    return cases


def _top_implicit(rng):
    # The energy error at theta = 1/2 halves over +-10% of mass.  So the
    # masses are stratified within each theta, and sit at the strata
    # centres, the seed permuting them: jitter within the strata alone
    # moved energy_err by 9% (IQR/median) between seeds.
    cases = []
    for theta in sorted(set(IMPLICIT_THETAS)):
        slots = [(s, t) for s in IMPLICIT_SYSTEMS for t in IMPLICIT_THETAS if t == theta]
        masses = _stratified(rng, len(slots), BRULS_TOP.mass, 0.1, jitter=False)
        cases += [
            RunConfig(
                system=system,
                method="symplectic",
                h=0.01,
                t_end=IMPLICIT_T_END,
                theta=theta,
                overrides={"mass": float(m)},
            )
            for (system, theta), m in zip(slots, masses)
        ]
    return cases


_BUILDERS = {"top-fixed": _top_fixed, "multibody": _multibody, "top-implicit": _top_implicit}


def build_cases(workload: str, seed: int):
    """The workload's case list for ``seed``; the same seed gives the
    same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [replace(c, seed=seed) for c in _BUILDERS[workload](rng)]
