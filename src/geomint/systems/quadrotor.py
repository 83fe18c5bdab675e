"""Two quadrotors transporting a point load through rigid links.

State (flat, 42 entries): payload position y and velocity v, attitudes
R_i with body angular velocities Omega_i, link directions q_i in S^2
with angular velocities omega_i.  The accelerations solve the 18 x 18
block system A(z) zdot = h(z); thrusts u_i and rotor moments M_i enter
through a pluggable control interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import System
from ..actions import quadrotor_action
from ..kernels import BlockMatrix, cross, solve_dense
from ..lie import hat

__all__ = [
    "QuadrotorParams",
    "Controls",
    "zero_controls",
    "constant_controls",
    "default_initial",
    "quadrotor_assemble",
    "quadrotor_zdot",
    "quadrotor_f",
    "quadrotor_energy",
    "build_quadrotor",
]

_E3 = np.array([0.0, 0.0, 1.0])

# Controls map (t, flat state) -> (u1, u2, M1, M2).
Controls = Callable[[float, np.ndarray], Tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class QuadrotorParams:
    payload_mass: float = 1.0
    masses: Tuple[float, float] = (2.0, 2.0)
    lengths: Tuple[float, float] = (1.0, 1.0)
    inertia1: Tuple[float, float, float] = (0.02, 0.02, 0.04)
    inertia2: Tuple[float, float, float] = (0.02, 0.02, 0.04)
    gravity: float = 9.81

    def __post_init__(self):
        if self.payload_mass <= 0 or min(self.masses) <= 0 or min(self.lengths) <= 0:
            raise ValueError("masses and lengths must be positive")
        if min(self.inertia1) <= 0 or min(self.inertia2) <= 0:
            raise ValueError("inertia diagonals must be positive")

    @property
    def inertias(self):
        return np.diag(self.inertia1), np.diag(self.inertia2)


def zero_controls(t, state):
    z = np.zeros(3)
    return z, z, z, z


def constant_controls(u1, u2, m1, m2) -> Controls:
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    return lambda t, state: (u1, u2, m1, m2)


# Flat layout offsets
_Y = slice(0, 3)
_V = slice(3, 6)
_R1 = slice(6, 15)
_O1 = slice(15, 18)
_R2 = slice(18, 27)
_O2 = slice(27, 30)
_Q1 = slice(30, 33)
_W1 = slice(33, 36)
_Q2 = slice(36, 39)
_W2 = slice(39, 42)


def default_initial() -> np.ndarray:
    """Both links tilted 45 degrees outward, small initial rates."""
    s = np.sqrt(2.0) / 2.0
    state = np.zeros(42)
    state[_V] = (0.0, 0.0, 0.1)
    state[_R1] = np.eye(3).ravel()
    state[_O1] = (0.1, -0.2, 0.1)
    state[_R2] = np.eye(3).ravel()
    state[_O2] = (-0.1, 0.1, 0.2)
    state[_Q1] = (-s, 0.0, -s)
    state[_W1] = (0.0, 0.3, 0.0)
    state[_Q2] = (s, 0.0, -s)
    state[_W2] = (0.0, -0.2, 0.0)
    return state


def quadrotor_assemble(params: QuadrotorParams, controls: Controls, t, state):
    """Block system A(z) zdot = h(z) for z = [y, v, Omega1, Omega2, omega1, omega2]."""
    q1, q2 = state[_Q1], state[_Q2]
    w1, w2 = state[_W1], state[_W2]
    v = state[_V]
    m1, m2 = params.masses
    L1, L2 = params.lengths
    J1, J2 = params.inertias
    O1, O2 = state[_O1], state[_O2]
    u1, u2, mom1, mom2 = controls(t, state)

    mq = params.payload_mass * np.eye(3) + m1 * np.outer(q1, q1) + m2 * np.outer(q2, q2)

    A = BlockMatrix(6)
    A.set_block(0, 0, np.eye(3))
    A.set_block(1, 1, mq)
    A.set_block(2, 2, J1)
    A.set_block(3, 3, J2)
    A.set_block(4, 1, -hat(q1) / L1)
    A.set_block(4, 4, np.eye(3))
    A.set_block(5, 1, -hat(q2) / L2)
    A.set_block(5, 5, np.eye(3))

    u1_par = np.outer(q1, q1) @ u1
    u2_par = np.outer(q2, q2) @ u2
    u1_perp = u1 - u1_par
    u2_perp = u2 - u2_par
    g = params.gravity

    h = np.concatenate(
        [
            v,
            -m1 * L1 * (w1 @ w1) * q1
            - m2 * L2 * (w2 @ w2) * q2
            + g * (mq @ _E3)
            + u1_par
            + u2_par,
            -cross(O1, J1 @ O1) + mom1,
            -cross(O2, J2 @ O2) + mom2,
            -(g / L1) * cross(q1, _E3) - cross(q1, u1_perp) / (m1 * L1),
            -(g / L2) * cross(q2, _E3) - cross(q2, u2_perp) / (m2 * L2),
        ]
    )
    return A, h


def quadrotor_zdot(params, controls, t, state) -> np.ndarray:
    A, h = quadrotor_assemble(params, controls, t, state)
    return solve_dense(A, h)


def quadrotor_f(params: QuadrotorParams, controls: Controls, t, state) -> np.ndarray:
    """Frozen field in the 30-dimensional algebra: accelerations from the
    block solve, spatial twists R_i Omega_i for the attitudes, and per-link
    (omega_i, q_i x hbar_i) pairs."""
    zd = quadrotor_zdot(params, controls, t, state)
    R1 = state[_R1].reshape(3, 3)
    R2 = state[_R2].reshape(3, 3)
    q1, q2 = state[_Q1], state[_Q2]
    return np.concatenate(
        [
            zd[0:3],  # ydot
            zd[3:6],  # vdot
            R1 @ state[_O1],
            zd[6:9],  # Omega1dot
            R2 @ state[_O2],
            zd[9:12],  # Omega2dot
            state[_W1],
            cross(q1, zd[12:15]),
            state[_W2],
            cross(q2, zd[15:18]),
        ]
    )


def quadrotor_ambient_rhs(params, controls, t, state) -> np.ndarray:
    """Direct time derivative of the flat state (kinematics + block solve)."""
    zd = quadrotor_zdot(params, controls, t, state)
    R1 = state[_R1].reshape(3, 3)
    R2 = state[_R2].reshape(3, 3)
    return np.concatenate(
        [
            zd[0:3],
            zd[3:6],
            (R1 @ hat(state[_O1])).ravel(),
            zd[6:9],
            (R2 @ hat(state[_O2])).ravel(),
            zd[9:12],
            cross(state[_W1], state[_Q1]),
            zd[12:15],
            cross(state[_W2], state[_Q2]),
            zd[15:18],
        ]
    )


def quadrotor_energy(params: QuadrotorParams, state: np.ndarray) -> float:
    """Total energy T + U; conserved along the zero-control flow."""
    v = state[_V]
    y = state[_Y]
    m1, m2 = params.masses
    L1, L2 = params.lengths
    J1, J2 = params.inertias
    my = params.payload_mass
    g = params.gravity

    kinetic = 0.5 * my * float(v @ v)
    potential = -my * g * float(_E3 @ y)
    for m, L, J, q, w, O in (
        (m1, L1, J1, state[_Q1], state[_W1], state[_O1]),
        (m2, L2, J2, state[_Q2], state[_W2], state[_O2]),
    ):
        vi = v - L * cross(w, q)
        kinetic += 0.5 * m * float(vi @ vi) + 0.5 * float(O @ (J @ O))
        potential -= m * g * float(_E3 @ (y - L * q))
    return kinetic + potential


def build_quadrotor(params: QuadrotorParams, controls: Controls = zero_controls, initial=None):
    initial = default_initial() if initial is None else np.asarray(initial, dtype=float)

    def max_q_norm_error(state):
        return max(
            abs(float(np.linalg.norm(state[_Q1])) - 1.0),
            abs(float(np.linalg.norm(state[_Q2])) - 1.0),
        )

    def max_tangency_error(state):
        return max(abs(float(state[_Q1] @ state[_W1])), abs(float(state[_Q2] @ state[_W2])))

    def max_orthogonality_error(state):
        return max(
            float(np.linalg.norm(state[_R1].reshape(3, 3).T @ state[_R1].reshape(3, 3) - np.eye(3))),
            float(np.linalg.norm(state[_R2].reshape(3, 3).T @ state[_R2].reshape(3, 3) - np.eye(3))),
        )

    return System(
        name="quadrotor",
        action=quadrotor_action(),
        field=lambda m: quadrotor_f(params, controls, 0.0, m),
        initial=initial,
        energy=lambda m: quadrotor_energy(params, m),
        invariants={
            "energy": lambda m: quadrotor_energy(params, m),
            "max_q_norm_error": max_q_norm_error,
            "max_tangency_error": max_tangency_error,
            "max_orthogonality_error": max_orthogonality_error,
        },
    )
