"""Chain of N spherical pendulums on (TS^2)^N.

Each link i carries a unit direction q_i and an angular velocity
omega_i with q_i . omega_i = 0, so q_i' = omega_i x q_i.  The angular
accelerations solve R(q) h = g(q, omega) with the symmetric block mass
matrix R(q); the frozen field per link is the se(3) element
(omega_i, q_i x h_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from . import System, _ts2_errors
from ..actions import ts2_action
from ..kernels import cross, solve_dense

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

_I3 = np.eye(3)


@dataclass(frozen=True)
class PendulumParams:
    masses: Tuple[float, ...]
    lengths: Tuple[float, ...]
    gravity: float = 9.81

    def __post_init__(self):
        if len(self.masses) != len(self.lengths):
            raise ValueError("masses and lengths must have equal length")
        if not self.masses:
            raise ValueError("a pendulum needs at least one link")
        if not np.isfinite((*self.masses, *self.lengths, self.gravity)).all():
            raise ValueError(f"pendulum parameters must be finite, got {self}")
        if min(self.masses) <= 0 or min(self.lengths) <= 0:
            raise ValueError("masses and lengths must be positive")

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def tail_mass(self) -> np.ndarray:
        """Cumulative sums from below: tail_mass[i] = sum_{j >= i} m_j."""
        return np.cumsum(np.asarray(self.masses)[::-1])[::-1]

    # What the field and the energy read of the parameters, built once.

    @cached_property
    def _coupling(self) -> np.ndarray:
        """N x N coefficients M_ij = (sum_{k >= max(i, j)} m_k) L_i L_j."""
        L = np.asarray(self.lengths)
        links = np.arange(self.n)
        return self.tail_mass[np.maximum.outer(links, links)] * np.outer(L, L)

    @cached_property
    def _off_coupling(self) -> np.ndarray:
        """The coupling with a zero diagonal."""
        M = self._coupling.copy()
        np.fill_diagonal(M, 0.0)
        return M

    @cached_property
    def _weight(self) -> np.ndarray:
        """Gravity weights (sum_{k >= i} m_k) g L_i."""
        return self.tail_mass * self.gravity * np.asarray(self.lengths)

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


def pendulum_mass_matrix(params: PendulumParams, q: np.ndarray) -> np.ndarray:
    """Symmetric 3N x 3N matrix of 3 x 3 blocks: diagonal M_ii I,
    off-diagonal M_ij hat(q_i)^T hat(q_j) = M_ij ((q_i . q_j) I - q_j q_i^T)."""
    n = params.n
    # blocks[i, :, j, :] = (q_i . q_j) I - q_j q_i^T
    blocks = (q @ q.T)[:, None, :, None] * _I3[None, :, None, :]
    blocks -= q.T[None, :, :, None] * q[:, None, None, :]
    links = np.arange(n)
    blocks[links, :, links, :] = _I3
    return (params._coupling[:, None, :, None] * blocks).reshape(3 * n, 3 * n)


def pendulum_rhs(params: PendulumParams, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stacked right-hand sides
    g_i = q_i x (sum_{j != i} M_ij |w_j|^2 q_j - (sum_{j >= i} m_j) g L_i e3)."""
    pull = (params._off_coupling * np.sum(w * w, axis=1)) @ q
    pull[:, 2] -= params._weight
    return cross(q.T, pull.T).T.ravel()


def pendulum_accelerations(params: PendulumParams, q, w) -> np.ndarray:
    """Solve R(q) h = g; each h_i is tangent at q_i."""
    return solve_dense(pendulum_mass_matrix(params, q), pendulum_rhs(params, q, w))


def pendulum_f(params: PendulumParams, state: np.ndarray) -> np.ndarray:
    """Frozen field in se(3)^N: per link (omega_i, q_i x h_i)."""
    n = params.n
    q, w = _split(state, n)
    h = pendulum_accelerations(params, q, w).reshape(n, 3)
    return np.hstack([w, cross(q.T, h.T).T]).ravel()


def pendulum_energy(params: PendulumParams, state: np.ndarray) -> float:
    q, w = _split(state, params.n)
    wflat = w.ravel()
    kinetic = 0.5 * float(wflat @ (pendulum_mass_matrix(params, q) @ wflat))
    potential = float(np.sum(params._weight * q[:, 2]))
    return kinetic + potential


def build_pendulum(params: PendulumParams):
    n = params.n
    return System(
        name=f"pendulum-{n}",
        action=ts2_action(n),
        field=lambda m: pendulum_f(params, m),
        initial=default_initial(n),
        invariants={
            "energy": lambda m: pendulum_energy(params, m),
            **_ts2_errors(0, n),
        },
    )
