"""Benchmark systems bundled as (action, frozen field, invariants) records."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..actions import HomogeneousAction
from ..integrators import CotangentGroup, SolveConfig, symplectic_step

__all__ = [
    "System",
    "CotangentForm",
    "symplectic_integrate",
    "SYSTEM_IDS",
    "OVERRIDES",
    "get_system",
]


@dataclass(frozen=True)
class CotangentForm:
    """Hamiltonian (f1, f2) view of a system on a cotangent group, with
    pack/unpack maps between (g, mu) pairs and the flat state layout."""

    group: CotangentGroup
    f: Callable[[Any, np.ndarray], tuple]
    pack: Callable[[Any, np.ndarray], np.ndarray]
    unpack: Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class System:
    name: str
    action: HomogeneousAction
    field: Callable[[np.ndarray], np.ndarray]
    initial: np.ndarray
    energy: Callable[[np.ndarray], float]
    invariants: Mapping[str, Callable[[np.ndarray], float]]
    cotangent: Optional[CotangentForm] = None


def symplectic_integrate(
    system: System,
    theta: float,
    h: float,
    n_steps: int,
    t0: float = 0.0,
    solve: SolveConfig = SolveConfig(),
):
    """Uniform-step driver for the implicit symplectic family, working on
    the system's flat state layout."""
    if system.cotangent is None:
        raise ValueError(f"system {system.name} has no cotangent formulation")
    ct = system.cotangent
    g, mu = ct.unpack(np.asarray(system.initial, dtype=float))
    ys = np.empty((n_steps + 1, system.initial.shape[0]))
    ys[0] = ct.pack(g, mu)
    for n in range(n_steps):
        g, mu = symplectic_step(ct.group, ct.f, g, mu, h, theta, solve)
        ys[n + 1] = ct.pack(g, mu)
    ts = t0 + h * np.arange(n_steps + 1)
    return ts, ys


# ---------------------------------------------------------------------------
# Registry.  The system modules import System and CotangentForm from here,
# so they are imported once both are defined.

from . import heavytop, pendulum, quadrotor  # noqa: E402


@dataclass(frozen=True)
class _Family:
    """Systems built from one parameter record.  ``params`` makes the
    record from the overrides given, so the defaults stay those of the
    parameter classes; ``defaults`` maps each override name to its
    default, read from those classes, and the default's type is the
    override's type."""

    builders: Mapping[str, Callable[[Any], System]]
    params: Callable[..., Any]
    defaults: Mapping[str, object]
    presets: Tuple[str, ...] = ()


def _defaults(record, names) -> Dict[str, object]:
    return {name: getattr(record, name) for name in names}


_FAMILIES = (
    _Family(
        builders={
            "heavytop-body": heavytop.build_body,
            "heavytop-spatial": heavytop.build_spatial,
            "heavytop-lp": heavytop.build_liepoisson,
            "heavytop-ext": heavytop.build_ext,
        },
        params=partial(replace, heavytop.BRULS_TOP),
        defaults=_defaults(heavytop.BRULS_TOP, ("mass", "gravity", "length")),
        presets=("bruls-top",),
    ),
    _Family(
        builders={"pendulum": pendulum.build_pendulum},
        params=pendulum.PendulumParams.uniform,
        defaults={
            name: p.default
            for name, p in inspect.signature(pendulum.PendulumParams.uniform).parameters.items()
        },
    ),
    _Family(
        builders={"quadrotor": quadrotor.build_quadrotor},
        params=quadrotor.QuadrotorParams,
        defaults=_defaults(quadrotor.QuadrotorParams(), ("payload_mass", "gravity")),
    ),
)

SYSTEM_IDS = tuple(sid for family in _FAMILIES for sid in family.builders)

# Every override name with its type, over all systems.
OVERRIDES: Dict[str, type] = {
    name: type(default) for family in _FAMILIES for name, default in family.defaults.items()
}


def get_system(system_id: str, preset: Optional[str] = None, **overrides) -> System:
    """Build a named benchmark system.

    Each override is one of the system's names in ``OVERRIDES``; one left
    out keeps the default of the system's parameter class.  The only
    named preset is ``bruls-top`` (the heavy top benchmark parameters,
    also the default).
    """
    family = next((f for f in _FAMILIES if system_id in f.builders), None)
    if family is None:
        raise ValueError(f"unknown system {system_id!r} (expected one of {SYSTEM_IDS})")
    if preset not in (None, *family.presets):
        raise ValueError(f"unknown preset {preset!r} for system {system_id!r}")
    unknown = set(overrides) - set(family.defaults)
    if unknown:
        raise ValueError(
            f"unknown overrides for system {system_id!r}: {sorted(unknown)} "
            f"(expected some of {sorted(family.defaults)})"
        )
    params = family.params(**{k: type(family.defaults[k])(v) for k, v in overrides.items()})
    return family.builders[system_id](params)
