"""Reference maps the tests check the closed forms against.

The truncated Bernoulli series of dexpinv is exact only in the limit, so
no integrator uses it; the tests compare every action's closed-form
``dexpinv`` with it.  The infinitesimal generators give each action's
ambient vector field, for the classical RK4 control and the field tests;
no stepper reads them.  The benchmark top is a Lagrange top, whose
nutation has a closed form in Jacobi's sn.  An embedded pair's
auxiliary method is built as its own stepper from the pair's table.
This module holds no random state.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate
from typing import Callable

import numpy as np
from scipy.special import ellipj, ellipkinc

from geomint.actions import HomogeneousAction
from geomint.integrators import CFScheme, Tableau
from geomint.kernels import cross
from geomint.lie import dexpinv_so3, exp_so3, hat


def se3_bracket(x, y):
    """[(A, a), (B, b)] = (A x B, A x b - B x a) on flat se(3) vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.concatenate([cross(x[:3], y[:3]), cross(x[:3], y[3:]) - cross(y[:3], x[3:])])


def ad_bracket(x, y):
    """Bracket dispatched on dimension: 3 -> so(3), 6 -> se(3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"algebra mismatch: {x.shape} vs {y.shape}")
    if x.shape == (3,):
        return cross(x, y)
    if x.shape == (6,):
        return se3_bracket(x, y)
    raise ValueError(f"no bracket for dimension {x.shape}")


# Bernoulli numbers B_k / k! for the dexpinv expansion, k = 0..7.
_BERNOULLI_COEFFS = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0)


def dexpinv_series(u, v, order: int, bracket: Callable = ad_bracket):
    """Truncated dexpinv expansion: sum_{k<order} (B_k/k!) ad_u^k v.

    ``order = 1`` returns ``v``; the cap is 8 (coefficients embedded up
    to the seventh iterated bracket).
    """
    if not 1 <= order <= 8:
        raise ValueError(f"unsupported truncation order {order} (must be 1..8)")
    out = np.asarray(v, dtype=float).copy()
    w = v
    for k in range(1, order):
        w = bracket(u, w)
        c = _BERNOULLI_COEFFS[k]
        if c != 0.0:
            out = out + c * w
    return out


def coadjoint_so3_action() -> HomogeneousAction:
    """SO(3) on so(3)* by g.mu = Ad*_{g^-1} mu = g mu (spherical shells),
    on the public array kernels; a group element is a 3x3 array."""
    return HomogeneousAction("coadjoint-so3", 3, 3, exp=exp_so3, act=lambda g, mu: g @ mu,
                             bracket=cross, dexpinv=dexpinv_so3, factors=())


def aux_stepper(table):
    """The auxiliary method of an embedded pair as its own stepper: a
    :class:`Tableau` with ``b_hat`` as its weights, or a :class:`CFScheme`
    whose main points run on into its aux points."""
    if isinstance(table, Tableau):
        return replace(table, b=table.b_hat, b_hat=None)
    return CFScheme(table.name, table.points + table.aux, table.stages)


# ---------------------------------------------------------------------------
# Infinitesimal generators: xi, m -> d/dt act(exp(t xi), m) at t = 0


def generator_translation(xi, m):
    return np.asarray(xi, dtype=float)


def generator_so3_left(xi, m):
    return (hat(xi) @ m.reshape(3, 3)).ravel()


def generator_so3_right(xi, m):
    return (m.reshape(3, 3) @ hat(xi)).ravel()


def generator_ts2(xi, m):
    """Generator (u,v) -> (u x q, u x w + v x q)."""
    u, v = xi[:3], xi[3:6]
    q, omega = m[:3], m[3:6]
    return np.concatenate([cross(u, q), cross(u, omega) + cross(v, q)])


def generator_coadjoint_so3(xi, mu):
    return cross(xi, mu)


def generator_coadjoint_se3(xi, mu):
    # -ad*_(xi,v) mu
    v = xi[3:6]
    Pi, Gamma = mu[:3], mu[3:6]
    return np.concatenate([cross(xi[:3], Pi) + cross(v, Gamma), cross(xi[:3], Gamma)])


def generator_cotangent_so3(xi, m):
    eta, delta = xi[:3], xi[3:6]
    Q = m[:9].reshape(3, 3)
    pi = m[9:12]
    return np.concatenate([(hat(eta) @ Q).ravel(), delta + cross(eta, pi)])


# the factor generators of each named action, in its factor order
_GENERATORS = {
    "so3-left": [generator_so3_left],
    "so3-right": [generator_so3_right],
    "se3-ts2": [generator_ts2],
    "coadjoint-so3": [generator_coadjoint_so3],
    "coadjoint-se3": [generator_coadjoint_se3],
    "cotangent-so3": [generator_cotangent_so3],
    "body-top": [generator_so3_right, generator_translation],
    "ext-top": [generator_cotangent_so3, generator_translation],
    "quadrotor": [generator_translation, generator_so3_left, generator_translation,
                  generator_so3_left, generator_translation, generator_ts2, generator_ts2],
}


def generator(action: HomogeneousAction) -> Callable:
    """The generator of a named action: its factors' generators on their
    algebra and point blocks, laid end to end."""
    family = action.name.rsplit("-", 1)[0]
    if family == "translation":
        return generator_translation
    if family == "ts2":
        gens = [generator_ts2] * len(action.factors)
    else:
        gens = _GENERATORS[action.name]
    if len(gens) == 1:
        return gens[0]
    if len(gens) != len(action.factors):
        raise ValueError(f"{action.name}: {len(action.factors)} factors, {len(gens)} generators")
    alg = list(accumulate((f.algebra_dim for f in action.factors), initial=0))
    pts = list(accumulate((f.point_dim for f in action.factors), initial=0))
    blocks = list(zip(gens, alg, alg[1:], pts, pts[1:]))
    return lambda xi, m: np.concatenate([g(xi[a:b], m[c:d]) for g, a, b, c, d in blocks])


# ---------------------------------------------------------------------------
# The Lagrange top: u = Gamma . e2 / |Gamma0| in closed form


def lagrange_top_u(params, state, t):
    """u(t) for a top with I1 = I3 = A and its centre of mass on e2, from
    the Lie--Poisson state (Pi, Gamma) at t = 0 (Landau and Lifshitz,
    *Mechanics*, ch. VI; Goldstein, *Classical Mechanics*, sec. 5.7).

    The energy, the spin s = Pi_2 and p = Pi . Gamma / |Gamma| are
    conserved, so with k = Mgl |Gamma| and a = (Pi_1^2 + Pi_3^2) / 2A + k u,
    A^2 u'^2 = 2A (a - k u)(1 - u^2) - (p - s u)^2.  This cubic has roots
    u1 <= u <= u2 < u3, and u = u1 + (u2 - u1) sn^2(lam t + tau0 | m) with
    m = (u2 - u1) / (u3 - u1) and lam^2 = k (u3 - u1) / 2A."""
    inertia, axis = np.asarray(params.inertia), np.asarray(params.axis)
    if inertia[0] != inertia[2] or not np.array_equal(axis, [0.0, 1.0, 0.0]):
        raise ValueError("not a Lagrange top about e2")
    A, Pi, gamma = inertia[0], state[:3], state[3:6] / np.linalg.norm(state[3:6])
    k, s, p, u0 = params.mgl * np.linalg.norm(state[3:6]), Pi[1], Pi @ gamma, gamma[1]
    a = (Pi[0] ** 2 + Pi[2] ** 2) / (2 * A) + k * u0
    cubic = [2 * A * k, -2 * A * a - s * s, 2 * p * s - 2 * A * k, 2 * A * a - p * p]
    u1, u2, u3 = np.sort(np.roots(cubic).real)
    m = (u2 - u1) / (u3 - u1)
    tau0 = ellipkinc(np.arcsin(np.sqrt(np.clip((u0 - u1) / (u2 - u1), 0.0, 1.0))), m)
    if gamma[2] * Pi[0] < gamma[0] * Pi[2]:  # u'(0) < 0: sn^2 falls from tau0
        tau0 = -tau0
    sn = ellipj(np.sqrt(k * (u3 - u1) / (2 * A)) * np.asarray(t) + tau0, m)[0]
    return u1 + (u2 - u1) * sn**2
