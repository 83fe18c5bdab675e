"""Two quadrotors transporting a point load through rigid links.

State (flat, 42 entries): payload position y and velocity v, attitudes
R_i with body angular velocities Omega_i, link directions q_i in S^2
with angular velocities omega_i.  The accelerations solve the 18 x 18
block system A(z) zdot = h(z) of ``quadrotor_assemble``.  A is the
identity but for the SPD payload block m_y I + sum_i m_i q_i q_i^T, the
diagonal inertias J_i and the link rows -hat(q_i) / L_i under the
payload block, so the field solves it by block elimination on floats:
one 3 x 3 solve for the payload acceleration, elementwise divides by
the inertias, then omega_i' = h_i + q_i x v' / L_i.  Thrusts u_i and
rotor moments M_i enter through a pluggable control interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import System, _rotation_error, _ts2_errors
from ..actions import quadrotor_action
from ..kernels import SingularMatrixError, _cross, _dot, _times, cross
from ..lie import hat

__all__ = [
    "QuadrotorParams",
    "Controls",
    "zero_controls",
    "default_initial",
    "quadrotor_assemble",
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
        values = (self.payload_mass, self.gravity, *self.masses, *self.lengths)
        if not np.isfinite((*values, *self.inertia1, *self.inertia2)).all():
            raise ValueError(f"quadrotor parameters must be finite, got {self}")
        if self.payload_mass <= 0 or min(self.masses) <= 0 or min(self.lengths) <= 0:
            raise ValueError("masses and lengths must be positive")
        if min(self.inertia1) <= 0 or min(self.inertia2) <= 0:
            raise ValueError("inertia diagonals must be positive")


def zero_controls(t, state):
    z = np.zeros(3)
    return z, z, z, z


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
    """Block system A(z) zdot = h(z) for z = [y, v, Omega1, Omega2, omega1, omega2],
    as dense arrays: the reference for the block elimination of ``quadrotor_f``."""
    q1, q2 = state[_Q1], state[_Q2]
    w1, w2 = state[_W1], state[_W2]
    v = state[_V]
    m1, m2 = params.masses
    L1, L2 = params.lengths
    J1, J2 = np.diag(params.inertia1), np.diag(params.inertia2)
    O1, O2 = state[_O1], state[_O2]
    u1, u2, mom1, mom2 = controls(t, state)

    mq = params.payload_mass * np.eye(3) + m1 * np.outer(q1, q1) + m2 * np.outer(q2, q2)

    A = np.eye(18)
    A[3:6, 3:6] = mq
    A[6:9, 6:9] = J1
    A[9:12, 9:12] = J2
    A[12:15, 3:6] = -hat(q1) / L1
    A[15:18, 3:6] = -hat(q2) / L2

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


def quadrotor_f(params: QuadrotorParams, controls: Controls, t, state) -> np.ndarray:
    """Frozen field in the 30-dimensional algebra, on floats and in order:
    v and v' (A(z) zdot = h(z) by block elimination), per rotor R_i Omega_i
    and Omega_i', per link omega_i and q_i x omega_i'.  Raises
    :class:`SingularMatrixError` on a non-finite state."""
    if not np.isfinite(state).all():
        raise SingularMatrixError("quadrotor state is not finite")
    s = state.tolist()
    c = np.concatenate(controls(t, state)).tolist()  # u1, u2, M1, M2
    g = params.gravity
    links = [(m, L, s[i:i + 3], s[i + 3:i + 6], c[j:j + 3]) for m, L, i, j in
             zip(params.masses, params.lengths, (30, 36), (0, 3))]
    # payload block m_y I + sum_i m_i q_i q_i^T and its right-hand side
    a11 = a22 = a33 = params.payload_mass
    a12 = a13 = a23 = b1 = b2 = 0.0
    b3 = g * a11
    for m, L, (q1, q2, q3), (w1, w2, w3), (u1, u2, u3) in links:
        a11, a22, a33 = a11 + m * q1 * q1, a22 + m * q2 * q2, a33 + m * q3 * q3
        a12, a13, a23 = a12 + m * q1 * q2, a13 + m * q1 * q3, a23 + m * q2 * q3
        k = q1 * u1 + q2 * u2 + q3 * u3 + g * m * q3 - m * L * (w1 * w1 + w2 * w2 + w3 * w3)
        b1, b2, b3 = b1 + k * q1, b2 + k * q2, b3 + k * q3
    # Cramer's rule: the block is SPD with determinant at least m_y^3
    c11, c12, c13 = a22 * a33 - a23 * a23, a13 * a23 - a12 * a33, a12 * a23 - a13 * a22
    c22, c23, c33 = a11 * a33 - a13 * a13, a12 * a13 - a11 * a23, a11 * a22 - a12 * a12
    det = a11 * c11 + a12 * c12 + a13 * c13
    vdot = [(c11 * b1 + c12 * b2 + c13 * b3) / det, (c12 * b1 + c22 * b2 + c23 * b3) / det,
            (c13 * b1 + c23 * b2 + c33 * b3) / det]
    out = s[3:6] + vdot
    # R Omega, then J Omega' = M - Omega x J Omega
    for i, (j1, j2, j3), (M1, M2, M3) in ((6, params.inertia1, c[6:9]),
                                          (18, params.inertia2, c[9:12])):
        o1, o2, o3 = s[i + 9:i + 12]
        out += _times(s[i:i + 9], o1, o2, o3)
        out += [(M1 - (o2 * j3 * o3 - o3 * j2 * o2)) / j1,
                (M2 - (o3 * j1 * o1 - o1 * j3 * o3)) / j2,
                (M3 - (o1 * j2 * o2 - o2 * j1 * o1)) / j3]
    # omega, then q x omega' with omega' = h + q x v' / L = q x (v' - u / m - g e3) / L
    for m, L, q, w, (u1, u2, u3) in links:
        out += w
        out += _cross(q, _cross(q, [(vdot[0] - u1 / m) / L, (vdot[1] - u2 / m) / L,
                                    (vdot[2] - u3 / m - g) / L]))
    return np.array(out)


def quadrotor_energy(params: QuadrotorParams, state: np.ndarray) -> np.ndarray:
    """Total energy T + U over the state's leading axes; conserved along
    the zero-control flow."""
    v, height = state[..., _V], state[..., _Y.start + 2]
    my, g = params.payload_mass, params.gravity
    kinetic = 0.5 * my * _dot(v, v)
    potential = -my * g * height
    links = ((_Q1, _W1, _O1, params.inertia1), (_Q2, _W2, _O2, params.inertia2))
    for m, L, (q, w, O, J) in zip(params.masses, params.lengths, links):
        q, w, O = state[..., q], state[..., w], state[..., O]
        vi = v - L * cross(w.T, q.T).T
        kinetic += 0.5 * m * _dot(vi, vi) + 0.5 * _dot(O, np.asarray(J) * O)
        potential -= m * g * (height - L * q[..., 2])
    return kinetic + potential


def build_quadrotor(params: QuadrotorParams, controls: Controls = zero_controls):
    return System(
        name="quadrotor",
        action=quadrotor_action(),
        field=lambda m: quadrotor_f(params, controls, 0.0, m),
        initial=default_initial(),
        invariants={
            "energy": lambda m: quadrotor_energy(params, m),
            **_ts2_errors(_Q1.start, 2),
            "max_orthogonality_error": _rotation_error(_R1.start, _R2.start),
        },
    )
