"""Benchmark systems bundled as (action, frozen field, invariants) records."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from ..actions import HomogeneousAction
from ..integrators import CotangentGroup, SolveConfig, fixed_integrate, symplectic_step
from ..kernels import _dot

__all__ = [
    "System",
    "CotangentForm",
    "symplectic_integrate",
    "SYSTEM_IDS",
    "OVERRIDES",
    "get_system",
    "as_int",
]


@dataclass(frozen=True)
class CotangentForm:
    """Hamiltonian (f1, f2) view of a system on a cotangent group, with
    pack/unpack maps between (g, mu) pairs and the flat state layout."""

    group: CotangentGroup
    f: Callable[[Any, Sequence[float]], tuple]
    pack: Callable[[Any, np.ndarray], np.ndarray]
    unpack: Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class System:
    """Each of the named ``invariants`` maps an array of states over its
    leading axes: one state to a scalar, a whole trajectory to a column."""

    name: str
    action: HomogeneousAction
    field: Callable[[np.ndarray], np.ndarray]
    initial: np.ndarray
    invariants: Mapping[str, Callable[[np.ndarray], np.ndarray]]
    cotangent: Optional[CotangentForm] = None

    @property
    def energy(self) -> Callable[[np.ndarray], np.ndarray]:
        """The ``"energy"`` invariant, which every system has."""
        return self.invariants["energy"]


def _rotation_error(*starts) -> Callable[[np.ndarray], np.ndarray]:
    """The largest |R^T R - I| over the 3x3 blocks stored row by row from
    each of ``starts``; NaN when any block holds a NaN."""

    def error(m):
        R = np.stack([m[..., i:i + 9].reshape(m.shape[:-1] + (3, 3)) for i in starts], axis=-3)
        E = (np.swapaxes(R, -1, -2) @ R - np.eye(3)).reshape(R.shape[:-2] + (9,))
        return np.sqrt(_dot(E, E)).max(axis=-1)

    return error


def _ts2_errors(start: int, n: int) -> Dict[str, Callable[[np.ndarray], np.ndarray]]:
    """The largest ||q| - 1| and |q . w| over ``n`` links (q, w) of six
    entries each, laid end to end from ``start``."""

    def links(m):
        return m[..., start:start + 6 * n].reshape(m.shape[:-1] + (n, 6))

    def q_norm_error(m):
        q = links(m)[..., :3]
        return np.abs(np.sqrt(_dot(q, q)) - 1.0).max(axis=-1)

    def tangency_error(m):
        qw = links(m)
        return np.abs(_dot(qw[..., :3], qw[..., 3:])).max(axis=-1)

    return {"max_q_norm_error": q_norm_error, "max_tangency_error": tangency_error}


def symplectic_integrate(
    system: System,
    theta: float,
    h: float,
    n_steps: int,
    t0: float = 0.0,
    solve: SolveConfig = SolveConfig(),
):
    """The implicit symplectic family on the shared uniform-step driver:
    ``fixed_integrate`` to t0 + n_steps h over ``symplectic_step`` on the flat
    state.  Each step takes ``h`` itself, which the driver's (T - t0) / n_steps
    can miss by an ulp when t0 != 0.  ``solve`` is unused (see ``SolveConfig``)."""
    if (ct := system.cotangent) is None:
        raise ValueError(f"system {system.name} has no cotangent formulation")

    def step(action, f, y, _):
        return ct.pack(*symplectic_step(ct.group, f, *ct.unpack(y), h, theta)), None

    return fixed_integrate(system.action, ct.f, step, system.initial, t0, t0 + n_steps * h,
                           n_steps)


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
    override's type.  The heavy tops' defaults are those of the benchmark
    top ``heavytop.BRULS_TOP``."""

    builders: Mapping[str, Callable[[Any], System]]
    params: Callable[..., Any]
    defaults: Mapping[str, object]


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


def as_int(name: str, value) -> int:
    """``value`` as an int when it is exactly a whole number, as 3, 3.0,
    "3" and "3.0" are; ValueError "<name> must be an integer" otherwise."""
    try:
        whole = float(value)
    except (TypeError, ValueError, OverflowError):
        whole = math.nan
    if not whole.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value if type(value) is int else int(whole)


def get_system(system_id: str, **overrides) -> System:
    """Build a named benchmark system.

    Each override is one of the system's names in ``OVERRIDES``; one left
    out keeps the default of the system's parameter class.  An integer
    override is read by :func:`as_int`.
    """
    family = next((f for f in _FAMILIES if system_id in f.builders), None)
    if family is None:
        raise ValueError(f"unknown system {system_id!r} (expected one of {SYSTEM_IDS})")
    unknown = set(overrides) - set(family.defaults)
    if unknown:
        raise ValueError(
            f"unknown overrides for system {system_id!r}: {sorted(unknown)} "
            f"(expected some of {sorted(family.defaults)})"
        )
    values = {key: as_int(f"override {key!r}", value) if OVERRIDES[key] is int
              else OVERRIDES[key](value) for key, value in overrides.items()}
    return family.builders[system_id](family.params(**values))
