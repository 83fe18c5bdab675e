"""Chain of N spherical pendulums on (TS^2)^N.

Each link i carries a unit direction q_i and an angular velocity
omega_i with q_i . omega_i = 0, so q_i' = omega_i x q_i.  The angular
accelerations solve R(q) h = g(q, omega) with the symmetric block mass
matrix R(q); the frozen field per link is the se(3) element
(omega_i, q_i x h_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import System
from ..actions import ts2_action
from ..kernels import BlockMatrix, cross, solve_dense
from ..lie import hat

__all__ = [
    "PendulumParams",
    "default_initial",
    "pendulum_mass_matrix",
    "pendulum_rhs",
    "pendulum_accelerations",
    "pendulum_f",
    "pendulum_energy",
    "build_pendulum",
]

_E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PendulumParams:
    masses: Tuple[float, ...]
    lengths: Tuple[float, ...]
    gravity: float = 9.81

    def __post_init__(self):
        if len(self.masses) != len(self.lengths):
            raise ValueError("masses and lengths must have equal length")
        if min(self.masses) <= 0 or min(self.lengths) <= 0:
            raise ValueError("masses and lengths must be positive")

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def tail_mass(self) -> np.ndarray:
        """Cumulative sums from below: tail_mass[i] = sum_{j >= i} m_j."""
        return np.cumsum(np.asarray(self.masses)[::-1])[::-1]

    @classmethod
    def uniform(cls, n: int = 2, mass=1.0, length=1.0, gravity=9.81) -> "PendulumParams":
        return cls(masses=(mass,) * n, lengths=(length,) * n, gravity=gravity)


def default_initial(n: int) -> np.ndarray:
    """Every link tilted 45 degrees in the x-z plane, swinging about e2."""
    s = np.sqrt(2.0) / 2.0
    return np.tile([s, 0.0, s, 0.0, 1.0, 0.0], n)


def _split(state: np.ndarray, n: int):
    blocks = state.reshape(n, 6)
    return blocks[:, :3], blocks[:, 3:]


def pendulum_mass_matrix(params: PendulumParams, q: np.ndarray) -> BlockMatrix:
    """Symmetric 3N x 3N block matrix: diagonal (sum_{j>=i} m_j) L_i^2 I,
    off-diagonal (i<j) (sum_{k>=j} m_k) L_i L_j hat(q_i)^T hat(q_j)."""
    n = params.n
    tails = params.tail_mass
    L = np.asarray(params.lengths)
    R = BlockMatrix(n)
    hats = [hat(q[i]) for i in range(n)]
    for i in range(n):
        R.set_block(i, i, tails[i] * L[i] ** 2 * np.eye(3))
        for j in range(i + 1, n):
            block = tails[j] * L[i] * L[j] * (hats[i].T @ hats[j])
            R.set_block(i, j, block)
            R.set_block(j, i, block.T)
    return R


def pendulum_rhs(params: PendulumParams, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stacked right-hand sides g_i = sum_{j != i} M_ij |w_j|^2 q_i x q_j
    - (sum_{j >= i} m_j) g L_i q_i x e3."""
    n = params.n
    tails = params.tail_mass
    L = np.asarray(params.lengths)
    out = np.empty((n, 3))
    for i in range(n):
        gi = -tails[i] * params.gravity * L[i] * cross(q[i], _E3)
        for j in range(n):
            if j != i:
                mij = tails[max(i, j)] * L[i] * L[j]
                gi = gi + mij * (w[j] @ w[j]) * cross(q[i], q[j])
        out[i] = gi
    return out.ravel()


def pendulum_accelerations(params: PendulumParams, q, w) -> np.ndarray:
    """Solve R(q) h = g; each h_i is tangent at q_i."""
    return solve_dense(pendulum_mass_matrix(params, q), pendulum_rhs(params, q, w))


def pendulum_f(params: PendulumParams, state: np.ndarray) -> np.ndarray:
    """Frozen field in se(3)^N: per link (omega_i, q_i x h_i)."""
    n = params.n
    q, w = _split(state, n)
    h = pendulum_accelerations(params, q, w).reshape(n, 3)
    out = np.empty((n, 6))
    for i in range(n):
        out[i, :3] = w[i]
        out[i, 3:] = cross(q[i], h[i])
    return out.ravel()


def pendulum_energy(params: PendulumParams, state: np.ndarray) -> float:
    n = params.n
    q, w = _split(state, n)
    R = pendulum_mass_matrix(params, q)
    wflat = w.ravel()
    kinetic = 0.5 * float(wflat @ (R.mat @ wflat))
    potential = float(
        np.sum(params.tail_mass * params.gravity * np.asarray(params.lengths) * q[:, 2])
    )
    return kinetic + potential


def build_pendulum(params: PendulumParams, initial=None):
    n = params.n
    initial = default_initial(n) if initial is None else np.asarray(initial, dtype=float)

    def max_norm_error(state):
        q, _ = _split(state, n)
        return float(np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)))

    def max_tangency_error(state):
        q, w = _split(state, n)
        return float(np.max(np.abs(np.sum(q * w, axis=1))))

    return System(
        name=f"pendulum-{n}",
        action=ts2_action(n),
        field=lambda m: pendulum_f(params, m),
        initial=initial,
        energy=lambda m: pendulum_energy(params, m),
        invariants={
            "energy": lambda m: pendulum_energy(params, m),
            "max_q_norm_error": max_norm_error,
            "max_tangency_error": max_tangency_error,
        },
    )
