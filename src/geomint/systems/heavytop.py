"""Heavy top: a rigid body with a fixed point in a gravitational field.

Four state-space views of the same dynamics, each paired with the group
action that makes its equations a frozen-field assembly:

* body form (Q, Pi) under right multiplication on Q,
* spatial form (Q, pi = Q Pi) on the cotangent group SO(3) x so(3)*,
* Lie--Poisson form (Pi, Gamma) on se(3)* under the coadjoint action,
* extended form (Q, pi, p, q) with a quadratic Hamiltonian, where the
  constant momentum p = -M g l X absorbs the gravitational torque.

Gravity enters through gamma0, the upward spatial axis scaled by the
gravitational acceleration; the ``gravity`` field is a further
multiplier kept at 1 for the standard benchmark parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import CotangentForm, System
from ..actions import (
    body_top_action,
    coadjoint_se3_action,
    cotangent_so3_action,
    ext_top_action,
)
from ..integrators import so3_cotangent_group, so3r3_cotangent_group
from ..kernels import cross

__all__ = [
    "HeavyTopParams",
    "BRULS_TOP",
    "bruls_momentum",
    "heavytop_body_f",
    "heavytop_spatial_f",
    "heavytop_spatial_f_pair",
    "heavytop_liepoisson_f",
    "heavytop_ext_f",
    "heavytop_ext_f_pair",
    "body_energy",
    "spatial_energy",
    "liepoisson_energy",
    "ext_energy",
    "pack_spatial",
    "unpack_spatial",
    "pack_ext",
    "unpack_ext",
]


@dataclass(frozen=True)
class HeavyTopParams:
    """Inertia is the diagonal of the body inertia tensor; ``axis`` is
    the unit vector from the fixed point to the center of mass."""

    inertia: Tuple[float, float, float]
    mass: float
    length: float
    gravity: float = 1.0
    axis: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    gamma0: Tuple[float, float, float] = (0.0, 0.0, -9.81)

    def __post_init__(self):
        if min(self.inertia) <= 0:
            raise ValueError("inertia diagonal must be positive")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("body axis must be a unit vector")

    @property
    def inertia_inv(self) -> np.ndarray:
        return 1.0 / np.asarray(self.inertia)

    @property
    def mgl(self) -> float:
        return self.mass * self.gravity * self.length

    @property
    def chi(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=float)

    @property
    def g0(self) -> np.ndarray:
        return np.asarray(self.gamma0, dtype=float)


# Benchmark top: Q(0) = I, pi(0) = inertia * (0, 150, -4.61538); the
# gravitational acceleration is carried by gamma0 = (0, 0, -9.81).
BRULS_TOP = HeavyTopParams(
    inertia=(0.234375, 0.46875, 0.234375), mass=15.0, length=2.0
)


def bruls_momentum(params: HeavyTopParams = BRULS_TOP) -> np.ndarray:
    """Initial spatial momentum of the benchmark: pi(0) = I (0, 150, -4.61538)."""
    return np.asarray(params.inertia) * np.array([0.0, 150.0, -4.61538])


# ---------------------------------------------------------------------------
# Body form, state [Q.ravel(), Pi]


def heavytop_body_f(params: HeavyTopParams, m: np.ndarray) -> np.ndarray:
    """Frozen field for the body-top action: (I^-1 Pi, Pi x I^-1 Pi + Mgl Gamma x X)."""
    Q = m[:9].reshape(3, 3)
    Pi = m[9:12]
    omega = params.inertia_inv * Pi
    gamma = Q.T @ params.g0
    return np.concatenate(
        [omega, cross(Pi, omega) + params.mgl * cross(gamma, params.chi)]
    )


def body_energy(params: HeavyTopParams, m: np.ndarray) -> float:
    Q = m[:9].reshape(3, 3)
    Pi = m[9:12]
    return 0.5 * float(Pi @ (params.inertia_inv * Pi)) + params.mgl * float(
        (Q.T @ params.g0) @ params.chi
    )


# ---------------------------------------------------------------------------
# Spatial form, state [Q.ravel(), pi]


def _spatial_omega(params, Q, pi):
    return Q @ (params.inertia_inv * (Q.T @ pi))


def heavytop_spatial_f_pair(params: HeavyTopParams):
    """Hamiltonian (f1, f2) map consumed by the symplectic family."""

    def f(g, mu):
        omega = _spatial_omega(params, g, mu)
        return omega, params.mgl * cross(params.g0, g @ params.chi) + cross(mu, omega)

    return f


def heavytop_spatial_f(params: HeavyTopParams, m: np.ndarray) -> np.ndarray:
    """Frozen field on SO(3) x so(3)*: (omega, Mgl Gamma0 x QX + pi x omega)."""
    return np.concatenate(heavytop_spatial_f_pair(params)(*unpack_spatial(m)))


def spatial_energy(params: HeavyTopParams, m: np.ndarray) -> float:
    Q = m[:9].reshape(3, 3)
    return body_energy(params, np.concatenate([m[:9], Q.T @ m[9:12]]))


def pack_spatial(g, mu) -> np.ndarray:
    return np.concatenate([np.asarray(g).ravel(), mu])


def unpack_spatial(m: np.ndarray):
    return m[:9].reshape(3, 3), m[9:12]


# ---------------------------------------------------------------------------
# Lie--Poisson form on se(3)*, state [Pi, Gamma]


def heavytop_liepoisson_f(params: HeavyTopParams, mu: np.ndarray) -> np.ndarray:
    """se(3) element whose coadjoint generator reproduces the reduced
    equations Pi' = Pi x I^-1 Pi + Mgl Gamma x X, Gamma' = Gamma x I^-1 Pi.

    The generator of g.mu = Ad*_{g^-1} mu is minus the infinitesimal
    coadjoint map, so both components carry a minus sign relative to the
    Hamiltonian gradients (I^-1 Pi, Mgl X).
    """
    return np.concatenate([-params.inertia_inv * mu[:3], -params.mgl * params.chi])


def liepoisson_energy(params: HeavyTopParams, mu: np.ndarray) -> float:
    Pi, gamma = mu[:3], mu[3:6]
    return 0.5 * float(Pi @ (params.inertia_inv * Pi)) + params.mgl * float(
        gamma @ params.chi
    )


# ---------------------------------------------------------------------------
# Extended form with quadratic Hamiltonian, state [Q.ravel(), pi, p, q]
#
# H = 1/2 <Pi, I^-1 Pi> + 1/2 |p - Q^T Gamma0|^2 - 1/2 |Q^T Gamma0|^2
# with p(0) = -Mgl X; p is exactly constant along the flow.


def ext_initial_p(params: HeavyTopParams) -> np.ndarray:
    return -params.mgl * params.chi


def heavytop_ext_f_pair(params: HeavyTopParams):
    """(f1, f2) on the group (SO(3) x R^3) x dual, state ((Q, q), (pi, p))."""

    def f(g, mu):
        Q, _q = g
        pi, p = mu[:3], mu[3:6]
        omega = _spatial_omega(params, Q, pi)
        f1 = np.concatenate([omega, p - Q.T @ params.g0])
        f2 = np.concatenate([-cross(params.g0, Q @ p) + cross(pi, omega), np.zeros(3)])
        return f1, f2

    return f


def heavytop_ext_f(params: HeavyTopParams, m: np.ndarray) -> np.ndarray:
    """Frozen field on the ext-top action, algebra order (omega, pi', p', q')."""
    f1, f2 = heavytop_ext_f_pair(params)(*unpack_ext(m))
    return np.concatenate([f1[:3], f2, f1[3:]])


def ext_energy(params: HeavyTopParams, m: np.ndarray) -> float:
    Q = m[:9].reshape(3, 3)
    pi, p = m[9:12], m[12:15]
    Pi = Q.T @ pi
    r = p - Q.T @ params.g0
    return (
        0.5 * float(Pi @ (params.inertia_inv * Pi))
        + 0.5 * float(r @ r)
        - 0.5 * float(params.g0 @ params.g0)
    )


def pack_ext(g, mu) -> np.ndarray:
    Q, q = g
    return np.concatenate([np.asarray(Q).ravel(), mu[:3], mu[3:6], q])


def unpack_ext(m: np.ndarray):
    Q = m[:9].reshape(3, 3)
    return (Q, m[15:18]), np.concatenate([m[9:12], m[12:15]])


# ---------------------------------------------------------------------------
# Assembled System records


def _orthogonality_error(m: np.ndarray) -> float:
    Q = m[:9].reshape(3, 3)
    return float(np.linalg.norm(Q.T @ Q - np.eye(3)))


def build_body(params: HeavyTopParams, pi0=None):
    pi0 = bruls_momentum(params) if pi0 is None else np.asarray(pi0, dtype=float)
    initial = np.concatenate([np.eye(3).ravel(), pi0])  # Q(0) = I so Pi(0) = pi(0)
    return System(
        name="heavytop-body",
        action=body_top_action(),
        field=lambda m: heavytop_body_f(params, m),
        initial=initial,
        energy=lambda m: body_energy(params, m),
        invariants={
            "energy": lambda m: body_energy(params, m),
            "orthogonality": _orthogonality_error,
        },
    )


def build_spatial(params: HeavyTopParams, pi0=None):
    pi0 = bruls_momentum(params) if pi0 is None else np.asarray(pi0, dtype=float)
    initial = np.concatenate([np.eye(3).ravel(), pi0])
    g0 = params.g0
    return System(
        name="heavytop-spatial",
        action=cotangent_so3_action(),
        field=lambda m: heavytop_spatial_f(params, m),
        initial=initial,
        energy=lambda m: spatial_energy(params, m),
        invariants={
            "energy": lambda m: spatial_energy(params, m),
            "orthogonality": _orthogonality_error,
            "gamma0_dot_pi": lambda m: float(g0 @ m[9:12]),
        },
        cotangent=CotangentForm(
            group=so3_cotangent_group(),
            f=heavytop_spatial_f_pair(params),
            pack=pack_spatial,
            unpack=unpack_spatial,
        ),
    )


def build_liepoisson(params: HeavyTopParams, pi0=None):
    pi0 = bruls_momentum(params) if pi0 is None else np.asarray(pi0, dtype=float)
    initial = np.concatenate([pi0, params.g0])  # Q(0) = I: Pi = pi, Gamma = Gamma0
    return System(
        name="heavytop-lp",
        action=coadjoint_se3_action(),
        field=lambda mu: heavytop_liepoisson_f(params, mu),
        initial=initial,
        energy=lambda mu: liepoisson_energy(params, mu),
        invariants={
            "energy": lambda mu: liepoisson_energy(params, mu),
            "gamma_norm": lambda mu: float(np.linalg.norm(mu[3:6])),
            "pi_dot_gamma": lambda mu: float(mu[:3] @ mu[3:6]),
        },
    )


def build_ext(params: HeavyTopParams, pi0=None):
    pi0 = bruls_momentum(params) if pi0 is None else np.asarray(pi0, dtype=float)
    initial = np.concatenate([np.eye(3).ravel(), pi0, ext_initial_p(params), np.zeros(3)])
    g0 = params.g0
    return System(
        name="heavytop-ext",
        action=ext_top_action(),
        field=lambda m: heavytop_ext_f(params, m),
        initial=initial,
        energy=lambda m: ext_energy(params, m),
        invariants={
            "energy": lambda m: ext_energy(params, m),
            "orthogonality": _orthogonality_error,
            "p_norm": lambda m: float(np.linalg.norm(m[12:15])),
            "gamma0_dot_pi": lambda m: float(g0 @ m[9:12]),
        },
        cotangent=CotangentForm(
            group=so3r3_cotangent_group(),
            f=heavytop_ext_f_pair(params),
            pack=pack_ext,
            unpack=unpack_ext,
        ),
    )
