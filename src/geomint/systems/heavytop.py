"""Heavy top: a rigid body with a fixed point in a gravitational field.

Four state-space views of the same dynamics, each paired with the group
action that makes its equations a frozen-field assembly:

* body form (Q, Pi) under right multiplication on Q,
* spatial form (Q, pi = Q Pi) on the cotangent group SO(3) x so(3)*,
* Lie--Poisson form (Pi, Gamma) on se(3)* under the coadjoint action,
* extended form (Q, pi, p, q) with a quadratic Hamiltonian, where the
  constant momentum p = -M g l X absorbs the gravitational torque.

Each form's field or Hamiltonian (f1, f2) pair is built once per
parameter set, and reads the parameters only then.  The spatial and
extended forms' explicit field is their pair laid out by ``pack``; these
two forms also carry, on their cotangent group record, the exact Jacobian
of the implicit symplectic step's residual map, from which the
simplified-Newton solve forms its J.

Gravity enters through gamma0, the upward spatial axis scaled by the
gravitational acceleration; the ``gravity`` field is a further
multiplier kept at 1 for the standard benchmark parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Tuple

import numpy as np

from . import CotangentForm, System, _rotation_error
from ..actions import (
    body_top_action,
    coadjoint_se3_action,
    cotangent_so3_action,
    ext_top_action,
)
from ..integrators import so3rn_cotangent_group
from ..kernels import _dot, _product, _times, _times_hat, _transpose
from ..lie import _dexp_star_jacobian, _exp_dexp_coeffs, _rotation

__all__ = [
    "HeavyTopParams",
    "BRULS_TOP",
    "bruls_momentum",
    "heavytop_body_f",
    "heavytop_spatial_f_pair",
    "heavytop_liepoisson_f",
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        values = (*self.inertia, self.mass, self.length, self.gravity, *self.axis, *self.gamma0)
        if not np.isfinite(values).all():
            raise ValueError(f"heavy top parameters must be finite, got {self}")
        if min(self.inertia) <= 0 or self.mass <= 0 or self.length <= 0:
            raise ValueError("inertia diagonal, mass and length must be positive")
        if not np.isfinite(self.mgl):
            raise ValueError(f"heavy top weight mass * gravity * length must be finite, "
                             f"got {self.mgl!r}")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("body axis must be a unit vector")

    # the arrays are built once per parameter set and shared, so read-only

    @cached_property
    def inertia_inv(self) -> np.ndarray:
        return _read_only(1.0 / np.asarray(self.inertia))

    @property
    def mgl(self) -> float:
        return self.mass * self.gravity * self.length

    @cached_property
    def chi(self) -> np.ndarray:
        return _read_only(np.array(self.axis, dtype=float))

    @cached_property
    def g0(self) -> np.ndarray:
        return _read_only(np.array(self.gamma0, dtype=float))


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


def heavytop_body_f(params: HeavyTopParams):
    """The frozen field for the body-top action, (I^-1 Pi, Pi x I^-1 Pi + Mgl Gamma x X)."""
    (i1, i2, i3), (c1, c2, c3) = params.inertia_inv.tolist(), params.chi.tolist()
    gamma0, mgl = params.g0.tolist(), params.mgl

    def field(m):
        *q, p1, p2, p3 = m.tolist()
        g1, g2, g3 = _times(_transpose(q), *gamma0)  # Gamma = Q^T Gamma0
        o1, o2, o3 = i1 * p1, i2 * p2, i3 * p3
        return np.array([o1, o2, o3, p2 * o3 - p3 * o2 + mgl * (g2 * c3 - g3 * c2),
                         p3 * o1 - p1 * o3 + mgl * (g3 * c1 - g1 * c3),
                         p1 * o2 - p2 * o1 + mgl * (g1 * c2 - g2 * c1)])

    return field


def _transpose_times(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q^T v for Q stored row by row in the first nine entries of m, over
    the leading axes of m and v."""
    Q = m[..., :9].reshape(m.shape[:-1] + (3, 3))
    return (np.swapaxes(Q, -1, -2) @ v[..., None])[..., 0]


def body_energy(params: HeavyTopParams, m: np.ndarray) -> np.ndarray:
    """The Lie--Poisson energy at (Pi, Q^T Gamma0)."""
    return liepoisson_energy(
        params, np.concatenate([m[..., 9:12], _transpose_times(m, params.g0)], axis=-1))


# ---------------------------------------------------------------------------
# Spatial form, state [Q.ravel(), pi]


def _omega_and_torque(q, inertia_inv, p1, p2, p3, gamma, v):
    """omega = Q I^-1 Q^T pi and Gamma x Qv + pi x omega, as float lists,
    for Q given as nine floats row by row."""
    w1, w2, w3 = _times(_transpose(q), p1, p2, p3)
    i1, i2, i3 = inertia_inv
    o1, o2, o3 = _times(q, i1 * w1, i2 * w2, i3 * w3)
    e1, e2, e3 = _times(q, *v)
    g1, g2, g3 = gamma
    return [o1, o2, o3], [
        g2 * e3 - g3 * e2 + (p2 * o3 - p3 * o2),
        g3 * e1 - g1 * e3 + (p3 * o1 - p1 * o3),
        g1 * e2 - g2 * e1 + (p1 * o2 - p2 * o1),
    ]


def heavytop_spatial_f_pair(params: HeavyTopParams):
    """The Hamiltonian (f1, f2) map (omega, Gamma0 x Q (Mgl X) + pi x omega),
    in closed form on floats, from Q row by row and pi to two float lists."""
    inertia_inv, g0 = params.inertia_inv.tolist(), params.g0.tolist()
    mgl_chi = (params.mgl * params.chi).tolist()

    def pair(g, mu):
        return _omega_and_torque(g, inertia_inv, *mu, g0, mgl_chi)

    return pair


def spatial_energy(params: HeavyTopParams, m: np.ndarray) -> np.ndarray:
    return body_energy(
        params, np.concatenate([m[..., :9], _transpose_times(m, m[..., 9:12])], axis=-1))


def pack_spatial(g, mu) -> np.ndarray:
    return np.array([*g, *mu])


def unpack_spatial(m: np.ndarray):
    """(Q row by row, pi) of the flat state, as float lists."""
    m = m.tolist()
    return m[:9], m[9:12]


# ---------------------------------------------------------------------------
# Lie--Poisson form on se(3)*, state [Pi, Gamma]


def heavytop_liepoisson_f(params: HeavyTopParams):
    """Field of se(3) elements whose coadjoint generator reproduces the
    reduced equations Pi' = Pi x I^-1 Pi + Mgl Gamma x X, Gamma' = Gamma x I^-1 Pi.

    The generator of g.mu = Ad*_{g^-1} mu is minus the infinitesimal
    coadjoint map, so both components carry a minus sign relative to the
    Hamiltonian gradients (I^-1 Pi, Mgl X).
    """
    (i1, i2, i3), (c1, c2, c3) = params.inertia_inv.tolist(), params.chi.tolist()
    mgl = params.mgl
    v = [-mgl * c1, -mgl * c2, -mgl * c3]

    def field(mu):
        p1, p2, p3 = mu[:3].tolist()
        return np.array([-i1 * p1, -i2 * p2, -i3 * p3, *v])

    return field


def liepoisson_energy(params: HeavyTopParams, mu: np.ndarray) -> np.ndarray:
    Pi, gamma = mu[..., :3], mu[..., 3:6]
    return 0.5 * _dot(Pi, params.inertia_inv * Pi) + params.mgl * _dot(gamma, params.chi)


# ---------------------------------------------------------------------------
# Extended form with quadratic Hamiltonian, state [Q.ravel(), pi, p, q]
#
# H = 1/2 <Pi, I^-1 Pi> + 1/2 |p - Q^T Gamma0|^2 - 1/2 |Q^T Gamma0|^2
# with p(0) = -Mgl X; p is exactly constant along the flow.


def ext_initial_p(params: HeavyTopParams) -> np.ndarray:
    return -params.mgl * params.chi


def heavytop_ext_f_pair(params: HeavyTopParams):
    """The (f1, f2) map on (SO(3) x R^3) x dual, state ((Q, q), (pi, p)):
    f1 = (omega, p - Q^T Gamma0) and f2 = (Gamma0 x Q(-p) + pi x omega, 0),
    in closed form on floats, from (Q row by row, q) and (pi, p) to two
    float lists."""
    inertia_inv, g0 = params.inertia_inv.tolist(), params.g0.tolist()

    def pair(g, mu):
        q = g[:9]
        p1, p2, p3, s1, s2, s3 = mu
        omega, torque = _omega_and_torque(q, inertia_inv, p1, p2, p3, g0, (-s1, -s2, -s3))
        r1, r2, r3 = _times(_transpose(q), *g0)
        return omega + [s1 - r1, s2 - r2, s3 - r3], torque + [0.0, 0.0, 0.0]

    return pair


def ext_energy(params: HeavyTopParams, m: np.ndarray) -> np.ndarray:
    Pi = _transpose_times(m, m[..., 9:12])
    r = m[..., 12:15] - _transpose_times(m, params.g0)
    return 0.5 * (_dot(Pi, params.inertia_inv * Pi) + _dot(r, r) - float(params.g0 @ params.g0))


def pack_ext(g, mu) -> np.ndarray:
    """[Q.ravel(), pi, p, q] of ((Q, q), (pi, p)); the R^3 tail is split from
    the end, so the pair's ((omega, drift), (torque, 0)) packs as the field."""
    return np.array([*g[:-3], *mu, *g[-3:]])


def unpack_ext(m: np.ndarray):
    """((Q row by row, q), (pi, p)) of the flat state, as float lists."""
    m = m.tolist()
    return m[:9] + m[15:18], m[9:15]


# ---------------------------------------------------------------------------
# Exact Jacobian of the implicit step's residual map
#
# The symplectic step solves x = G(x) = h f(exp(theta xi) g0, M_theta)
# (integrators._symplectic_residual_map).  On the rotational block, with
# u = theta xi, R = exp(u) and D the right-trivialised dexp, both built by
# lie._rotation from lie._exp_dexp_coeffs(|u|^2), a move dxi turns R into
# hat(w) R with w = theta D(u) dxi; a = R^T nbar moves by hat(a) R^T w +
# R^T dnbar, and M_theta = D(xi)(mu0 + a) - theta D(u) a, since
# dexp*_{-v} is D(v).  Matrices are nine floats row by row.


def _momentum_blocks(q0, mu0, theta, xi, nbar):
    """Q = exp(theta xi) Q0 and the rotational M_theta, with A = theta D(u),
    which maps dxi to w, and the derivatives of M_theta in xi and nbar."""
    x, y, z = xi
    u1, u2, u3 = theta * x, theta * y, theta * z
    uu, xx = u1 * u1 + u2 * u2 + u3 * u3, x * x + y * y + z * z
    s, p_u, q_u = _exp_dexp_coeffs(uu)
    _, p_xi, q_xi = _exp_dexp_coeffs(xx)
    R = _rotation(u1, u2, u3, s, p_u)
    Rt = _transpose(R)
    a1, a2, a3 = _times(Rt, *nbar)
    b1, b2, b3 = mu0[0] + a1, mu0[1] + a2, mu0[2] + a3
    D = _rotation(x, y, z, p_xi, q_xi)
    A = [theta * d for d in _rotation(u1, u2, u3, p_u, q_u)]
    B = [d - e for d, e in zip(D, A)]
    m = [d - e for d, e in zip(_times(D, b1, b2, b3), _times(A, a1, a2, a3))]
    # hat(a) R^T = (R hat(-a))^T
    da = _product(B, _product(_transpose(_times_hat(R, -a1, -a2, -a3)), A))
    t2 = theta * theta
    dm_dxi = [t2 * du - dx + c for du, dx, c in zip(
        _dexp_star_jacobian(-u1, -u2, -u3, a1, a2, a3, uu, p_u, q_u),
        _dexp_star_jacobian(-x, -y, -z, b1, b2, b3, xx, p_xi, q_xi), da)]
    return _product(R, q0), m, A, dm_dxi, _product(B, Rt)


def _field_blocks(Q, m, A, dm_dxi, dm_dn, inertia_inv, gamma, v):
    """The derivatives in (xi, nbar) of omega = W m, W = Q I^-1 Q^T, and of
    the torque Gamma x Qv + m x omega: omega moves by (W hat(m) - hat(omega))
    w + W dm and the torque by (hat(Gamma) hat(Qv)^T + hat(m)(W hat(m) -
    hat(omega))) w + (hat(m) W - hat(omega)) dm."""
    r1, r2, r3, r4, r5, r6, r7, r8, r9 = Q
    i1, i2, i3 = inertia_inv
    s1, s2, s3, s4, s5, s6 = i1 * r1, i2 * r2, i3 * r3, i1 * r4, i2 * r5, i3 * r6
    w12 = s1 * r4 + s2 * r5 + s3 * r6
    w13 = s1 * r7 + s2 * r8 + s3 * r9
    w23 = s4 * r7 + s5 * r8 + s6 * r9
    W = (s1 * r1 + s2 * r2 + s3 * r3, w12, w13,
         w12, s4 * r4 + s5 * r5 + s6 * r6, w23,
         w13, w23, i1 * r7 * r7 + i2 * r8 * r8 + i3 * r9 * r9)
    m1, m2, m3 = m
    o1, o2, o3 = _times(W, m1, m2, m3)
    e1, e2, e3 = _times(Q, *v)
    k1, k2, k3, k4, k5, k6, k7, k8, k9 = _times_hat(W, m1, m2, m3)
    K = (k1, k2 + o3, k3 - o2, k4 - o3, k5, k6 + o1, k7 + o2, k8 - o1, k9)
    # hat(m) W - hat(omega) = -K^T, and hat(m) K = (-K^T hat(m))^T
    Kt = [-k for k in _transpose(K)]
    p1, p2, p3, p4, p5, p6, p7, p8, p9 = _transpose(_times_hat(Kt, m1, m2, m3))
    g1, g2, g3 = gamma
    ge = g1 * e1 + g2 * e2 + g3 * e3
    T = (ge - e1 * g1 + p1, p2 - e1 * g2, p3 - e1 * g3,
         p4 - e2 * g1, ge - e2 * g2 + p5, p6 - e2 * g3,
         p7 - e3 * g1, p8 - e3 * g2, ge - e3 * g3 + p9)
    return (
        [a + b for a, b in zip(_product(K, A), _product(W, dm_dxi))],
        _product(W, dm_dn),
        [a + b for a, b in zip(_product(T, A), _product(Kt, dm_dxi))],
        _product(Kt, dm_dn),
    )


_ZERO = (0.0,) * 9


def _assemble(blocks, h):
    """h times the square matrix of 3x3 blocks, each nine floats row by row."""
    k = len(blocks)
    return h * np.array(blocks).reshape(k, k, 3, 3).swapaxes(1, 2).reshape(3 * k, 3 * k)


def _spatial_jacobian(params: HeavyTopParams):
    """dG/dx of the spatial top's implicit step, x = (xi, nbar)."""
    inertia_inv, g0 = params.inertia_inv.tolist(), params.g0.tolist()
    mgl_chi = (params.mgl * params.chi).tolist()

    def jacobian(q0, mu0, h, theta, x):
        x = x.tolist()
        Q, m, A, dm_dxi, dm_dn = _momentum_blocks(q0, mu0, theta, x[:3], x[3:])
        w_xi, w_n, t_xi, t_n = _field_blocks(Q, m, A, dm_dxi, dm_dn, inertia_inv, g0, mgl_chi)
        return _assemble([[w_xi, w_n], [t_xi, t_n]], h)

    return jacobian


def _ext_jacobian(params: HeavyTopParams):
    """dG/dx of the extended top's implicit step, x = (xi, xi_t, nbar, nbar_t).
    The field does not read the translation, and its momentum is
    s = mu0_t + (1 - theta) nbar_t."""
    inertia_inv, g0 = params.inertia_inv.tolist(), params.g0.tolist()
    g1, g2, g3 = g0

    def jacobian(g, mu0, h, theta, x):
        x = x.tolist()
        Q, m, A, dm_dxi, dm_dn = _momentum_blocks(g[:9], mu0, theta, x[:3], x[6:9])
        c = 1.0 - theta
        v = [-s - c * n for s, n in zip(mu0[3:], x[9:])]
        w_xi, w_n, t_xi, t_n = _field_blocks(Q, m, A, dm_dxi, dm_dn, inertia_inv, g0, v)
        # E = -Q^T hat(Gamma0) is the derivative of -Q^T Gamma0 in w, and
        # the torque's in s is -hat(Gamma0) Q = -E^T
        E = _times_hat(_transpose(Q), -g1, -g2, -g3)
        return _assemble([
            [w_xi, _ZERO, w_n, _ZERO],
            [_product(E, A), _ZERO, _ZERO, (c, 0.0, 0.0, 0.0, c, 0.0, 0.0, 0.0, c)],
            [t_xi, _ZERO, t_n, [-c * e for e in _transpose(E)]],
            [_ZERO] * 4,
        ], h)

    return jacobian


# ---------------------------------------------------------------------------
# Assembled System records


def build_body(params: HeavyTopParams):
    pi0 = bruls_momentum(params)
    initial = np.concatenate([np.eye(3).ravel(), pi0])  # Q(0) = I so Pi(0) = pi(0)
    return System(
        name="heavytop-body",
        action=body_top_action(),
        field=heavytop_body_f(params),
        initial=initial,
        invariants={
            "energy": lambda m: body_energy(params, m),
            "orthogonality": _rotation_error(0),
        },
    )


def build_spatial(params: HeavyTopParams):
    pi0 = bruls_momentum(params)
    initial = np.concatenate([np.eye(3).ravel(), pi0])
    g0 = params.g0
    f = heavytop_spatial_f_pair(params)
    return System(
        name="heavytop-spatial",
        action=cotangent_so3_action(),
        field=lambda m: pack_spatial(*f(*unpack_spatial(m))),
        initial=initial,
        invariants={
            "energy": lambda m: spatial_energy(params, m),
            "orthogonality": _rotation_error(0),
            "gamma0_dot_pi": lambda m: _dot(g0, m[..., 9:12]),
        },
        cotangent=CotangentForm(
            group=replace(so3rn_cotangent_group(0), jacobian=_spatial_jacobian(params)),
            f=f,
            pack=pack_spatial,
            unpack=unpack_spatial,
        ),
    )


def build_liepoisson(params: HeavyTopParams):
    pi0 = bruls_momentum(params)
    initial = np.concatenate([pi0, params.g0])  # Q(0) = I: Pi = pi, Gamma = Gamma0
    return System(
        name="heavytop-lp",
        action=coadjoint_se3_action(),
        field=heavytop_liepoisson_f(params),
        initial=initial,
        invariants={
            "energy": lambda mu: liepoisson_energy(params, mu),
            "gamma_norm": lambda mu: np.sqrt(_dot(mu[..., 3:6], mu[..., 3:6])),
            "pi_dot_gamma": lambda mu: _dot(mu[..., :3], mu[..., 3:6]),
        },
    )


def build_ext(params: HeavyTopParams):
    pi0 = bruls_momentum(params)
    initial = np.concatenate([np.eye(3).ravel(), pi0, ext_initial_p(params), np.zeros(3)])
    g0 = params.g0
    f = heavytop_ext_f_pair(params)
    return System(
        name="heavytop-ext",
        action=ext_top_action(),
        field=lambda m: pack_ext(*f(*unpack_ext(m))),
        initial=initial,
        invariants={
            "energy": lambda m: ext_energy(params, m),
            "orthogonality": _rotation_error(0),
            "p_norm": lambda m: np.sqrt(_dot(m[..., 12:15], m[..., 12:15])),
            "gamma0_dot_pi": lambda m: _dot(g0, m[..., 9:12]),
        },
        cotangent=CotangentForm(
            group=replace(so3rn_cotangent_group(3), jacobian=_ext_jacobian(params)),
            f=f,
            pack=pack_ext,
            unpack=unpack_ext,
        ),
    )
