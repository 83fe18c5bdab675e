"""Chain of N spherical pendulums on (TS^2)^N.

Each link i carries a unit direction q_i and an angular velocity
omega_i with q_i . omega_i = 0, so q_i' = omega_i x q_i.  The angular
accelerations solve R(q) h = g(q, omega) with the symmetric block mass
matrix R(q) of ``pendulum_mass_matrix``; the frozen field per link is
the se(3) element (omega_i, u_i) with u_i = q_i x h_i.

The field never builds R(q).  Each h_i is tangent at q_i, so
h_i = u_i x q_i, and R(q) h = g becomes

    sum_j M_ij u_j = -p_i + lambda_i q_i,    q_i . u_i = 0,

with the N x N coupling M = L C L, C_ij = c_max(i,j), c_i the mass of
links i to N, p_i the ``pull`` of ``pendulum_rhs`` and one multiplier
lambda_i per link.  The pull is M applied to |omega_j|^2 q_j (its j = i
term, which ``pendulum_rhs`` leaves out, lies along q_i and moves only
lambda_i), less the weights c_i g L_i e3.  So K = M^-1 needs no pull:

    (K p)_i = |omega_i|^2 q_i - (K weight)_i e3,

with K weight built once per parameter set: (g / L_1, 0, ..., 0) to
rounding, since the weights are M applied to g / L_1 at the first link.

K is tridiagonal in closed form (C is a one-pair, or Green's, matrix),
u = K (lambda q) - K p, and the constraints q_i . u_i = 0 are the
tridiagonal system sum_j K_ij (q_i . q_j) lambda_j = q_i . (K p)_i,
symmetric positive definite by the Schur product theorem and solved by
the Thomas algorithm without pivoting.  The field thus costs O(N) on
Python floats; the kinetic energy
1/2 sum_k m_k |sum_{i <= k} L_i q_i x omega_i|^2 is a running sum down the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from typing import Tuple

import numpy as np

from . import System, _ts2_errors
from ..actions import ts2_action
from ..kernels import SingularMatrixError, cross

__all__ = [
    "PendulumParams",
    "default_initial",
    "pendulum_mass_matrix",
    "pendulum_rhs",
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
        self._inverse_coupling  # built here, so that its checks run at construction

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
    def _weight(self) -> np.ndarray:
        """Gravity weights (sum_{k >= i} m_k) g L_i."""
        return self.tail_mass * self.gravity * np.asarray(self.lengths)

    @cached_property
    def _inverse_coupling(self) -> Tuple[list, list]:
        """K = M^-1 in closed form, as floats: the diagonal
        K_ii = (1/m_i + 1/m_{i-1}) / L_i^2, with no 1/m_{i-1} for the
        first link, and the N + 1 entries K_{i-1,i} = -1/(m_{i-1} L_{i-1} L_i),
        with a zero at either end for the links the chain does not have.
        Raises ValueError where a divisor underflows to 0 or an entry
        overflows."""
        m, L = [float(x) for x in self.masses], [float(x) for x in self.lengths]
        try:
            diag = [(1.0 / m[i] + (1.0 / m[i - 1] if i else 0.0)) / (L[i] * L[i])
                    for i in range(self.n)]
            off = [0.0, *(-1.0 / (m[i] * L[i] * L[i + 1]) for i in range(self.n - 1)), 0.0]
            if all(map(isfinite, diag + off)):
                return diag, off
        except ZeroDivisionError:
            pass
        raise ValueError(f"pendulum masses and lengths give no finite inverse coupling, "
                         f"got {self}")

    @cached_property
    def _inverse_weight(self) -> list:
        """K applied to the weights, sum_j K_ij c_j g L_j: g / L_1 at the
        first link and 0 below it, to rounding.  Taken from the weights that
        ``pendulum_rhs`` uses, not written in that closed form, so that a
        parameter set whose weights overflow gives a non-finite field, as
        the dense solve did."""
        diag, off = self._inverse_coupling
        w = self._weight.tolist()
        return [a * w0 + b * w1 + c * w2 for a, b, c, w0, w1, w2
                in zip(off, diag, off[1:], [0.0, *w], w, [*w[1:], 0.0])]

    @classmethod
    def uniform(cls, n: int = 2, mass=1.0, length=1.0, gravity=9.81) -> "PendulumParams":
        return cls(masses=(mass,) * n, lengths=(length,) * n, gravity=gravity)


def default_initial(n: int) -> np.ndarray:
    """Every link tilted 45 degrees in the x-z plane, swinging about e2."""
    s = np.sqrt(2.0) / 2.0
    return np.array([s, 0.0, s, 0.0, 1.0, 0.0] * n)


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
    pull = (params._coupling * (1 - np.eye(params.n)) * np.sum(w * w, axis=1)) @ q
    pull[:, 2] -= params._weight
    return cross(q.T, pull.T).T.ravel()


def _check_length(params: PendulumParams, d: int) -> None:
    if d != 6 * params.n:
        raise ValueError(f"a {params.n}-link pendulum state has {6 * params.n} entries, got {d}")


def _multiples(params: PendulumParams, links, kp):
    """lambda_i q_i, where the multipliers lambda solve A lambda = b with
    A_ij = K_ij (q_i . q_j) and b_i = q_i . (K p)_i.  A is tridiagonal,
    symmetric and positive definite, so the Thomas algorithm solves it
    without pivoting."""
    diag, off = params._inverse_coupling
    sweep = []  # A_{i-1,i}, the pivot and the eliminated b_i per link
    pivot, rhs = 1.0, 0.0  # read only with A_{i-1,i} = 0 at the first link
    for k, e, (x0, y0, z0, _, _, _), (x, y, z, _, _, _), (a, b, c) in zip(
        diag, off, [(0.0,) * 6, *links], links, kp
    ):
        e *= x0 * x + y0 * y + z0 * z
        f = e / pivot
        pivot = k * (x * x + y * y + z * z) - f * e
        # written so that a NaN pivot fails it; only a zero q_i gives a zero one
        if not pivot > 0.0:
            raise SingularMatrixError(f"pendulum multiplier pivot {pivot:.3e}")
        rhs = x * a + y * b + z * c - f * rhs
        sweep.append((e, pivot, rhs))
    lq = []
    e = lam = 0.0
    for (e_i, pivot, rhs), (x, y, z, _, _, _) in zip(reversed(sweep), reversed(links)):
        lam = (rhs - e * lam) / pivot
        lq.append((lam * x, lam * y, lam * z))
        e = e_i
    lq.reverse()
    return lq


def pendulum_f(params: PendulumParams, state: np.ndarray) -> np.ndarray:
    """Frozen field in se(3)^N: per link (omega_i, u_i), u_i = q_i x h_i,
    in O(N) on floats read six to a link (see the module docstring).
    Raises :class:`SingularMatrixError` on a non-finite state."""
    s = state.tolist()
    if not all(map(isfinite, s)):
        raise SingularMatrixError("pendulum state is not finite")
    _check_length(params, len(s))
    links = list(zip(*[iter(s)] * 6))
    # (K p)_i = |omega_i|^2 q_i - (K weight)_i e3
    kp = []
    for (x, y, z, u, v, t), g in zip(links, params._inverse_weight):
        k = u * u + v * v + t * t
        kp.append((k * x, k * y, k * z - g))
    lq = _multiples(params, links, kp)
    # u_i = sum_{|j - i| <= 1} K_ij lambda_j q_j - (K p)_i
    diag, off = params._inverse_coupling
    zero = (0.0, 0.0, 0.0)
    out = []
    for a, b, c, (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (_, _, _, u, v, t), (kx, ky, kz) in zip(
        off, diag, off[1:], [zero, *lq], lq, [*lq[1:], zero], links, kp
    ):
        out += (u, v, t, a * x0 + b * x1 + c * x2 - kx, a * y0 + b * y1 + c * y2 - ky,
                a * z0 + b * z1 + c * z2 - kz)
    return np.array(out)


def pendulum_energy(params: PendulumParams, state: np.ndarray) -> np.ndarray:
    """Kinetic 1/2 sum_k m_k |sum_{i <= k} L_i q_i x omega_i|^2, the link
    velocities summed down the chain, plus potential sum_i weight_i q_i,z,
    over the state's leading axes."""
    _check_length(params, state.shape[-1])
    links = state.reshape(state.shape[:-1] + (params.n, 6))
    q = links[..., :3]
    # running sums down the chain, the last of each being the total
    v = np.cumsum(np.asarray(params.lengths)[:, None] * cross(q.T, links[..., 3:].T).T, axis=-2)
    kinetic = np.cumsum(np.asarray(params.masses) * np.sum(v * v, axis=-1), axis=-1)
    potential = np.cumsum(params._weight * q[..., 2], axis=-1)
    return 0.5 * kinetic[..., -1] + potential[..., -1]


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
