"""Transitive group actions.

Each concrete action is packaged as a :class:`HomogeneousAction` record:
the integrators are written once against this interface and never see
the underlying group.  Manifold points are flat float64 arrays; group
elements are whatever structure the action finds convenient.  The
schemes only make group elements with ``exp`` and apply them with
``act``, so no action carries a group product, identity or inverse.

Every action is a direct product of factor records: ``R^n``
translation, SO(3) multiplying a 3x3 rotation block from the left or
from the right, SE(3) on TS^2, the cotangent group SO(3) x so(3)* on
(Q, pi), and the coadjoint action of SE(3), with their blocks laid end
to end.  Factors work on Python floats, so a product map converts its
arguments once and builds one array at the end.  A group element is a
list with one entry per factor (9 floats for SO(3), R row by row; 12
for SE(3), R and then r), or that entry alone for a one-factor action.
The SE(3) action on TS^2 checks every point it moves and raises
ValueError off the manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence

import numpy as np

from .kernels import _cross, _product
from .lie import (
    _dexpinv_se3,
    _dexpinv_so3,
    _exp_se3,
    _exp_so3,
    _floats,
    _se3_bracket,
)

__all__ = [
    "HomogeneousAction",
    "product_action",
    "translation_action",
    "so3_left_action",
    "so3_right_action",
    "se3_ts2_action",
    "ts2_action",
    "coadjoint_se3_action",
    "body_top_action",
    "cotangent_so3_action",
    "ext_top_action",
    "quadrotor_action",
]


@dataclass(frozen=True)
class HomogeneousAction:
    """A transitive action together with the data integrators consume.

    ``exp`` maps a flat algebra element to a group element, ``act``
    moves a flat manifold point.  ``dexpinv`` is the exact inverse
    differential of exp, ``dexpinv(u, v) = sum_k (B_k/k!) ad_u^k v``
    summed in closed form, with ``ad_u = bracket(u, .)``.  The steppers
    read ``exp``, ``act``, ``dexpinv``, ``bracket`` and ``algebra_dim``.
    ``factors`` lists its factor records.
    """

    name: str
    algebra_dim: int
    point_dim: int
    exp: Callable[[np.ndarray], Any]
    act: Callable[[Any, np.ndarray], np.ndarray]
    bracket: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dexpinv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    factors: tuple


@dataclass(frozen=True)
class _Factor:
    """One factor of a direct product: its block sizes and four maps that
    take and return sequences of Python floats (``act`` takes the
    factor's group element first)."""

    algebra_dim: int
    point_dim: int
    exp: Callable
    act: Callable
    dexpinv: Callable
    bracket: Callable


# Group data of the factors over SE(3): an element is the 12 floats of
# _exp_se3, R row by row and then r.

_SE3 = dict(algebra_dim=6, exp=_exp_se3, dexpinv=_dexpinv_se3, bracket=_se3_bracket)


# ---------------------------------------------------------------------------
# Direct products


def _entries(v, n):
    """The n components of v as floats; ValueError on any other length."""
    vs = _floats(v)
    if len(vs) != n:
        raise ValueError(f"expected {n} entries, got {len(vs)}")
    return vs


def _blocks(dims) -> list:
    ends = list(accumulate(dims, initial=0))
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _action(name: str, factors: Sequence[_Factor]) -> HomogeneousAction:
    """The direct product of ``factors`` as one action."""
    factors = tuple(factors)
    alg = _blocks(f.algebra_dim for f in factors)
    pts = _blocks(f.point_dim for f in factors)
    algebra_dim, point_dim = alg[-1].stop, pts[-1].stop
    acts = [(f.act, p) for f, p in zip(factors, pts)]

    def exp(xi):
        xs = _entries(xi, algebra_dim)
        return [f.exp(xs[a]) for f, a in zip(factors, alg)]

    def act(g, m):
        ms = _entries(m, point_dim)
        out = []
        for (f, p), gi in zip(acts, g, strict=True):
            out += f(gi, ms[p])
        return np.array(out)

    def pairwise(maps):
        """One map of two algebra elements, factor by factor."""
        def apply(u, v):
            us, vs = _entries(u, algebra_dim), _entries(v, algebra_dim)
            out = []
            for f, a in zip(maps, alg):
                out += f(us[a], vs[a])
            return np.array(out)
        return apply

    if len(factors) > 1:
        return HomogeneousAction(name, algebra_dim, point_dim, exp, act,
                                 pairwise([f.bracket for f in factors]),
                                 pairwise([f.dexpinv for f in factors]), factors)
    # one factor: the group elements are the factor's own; call its maps directly
    (f,) = factors

    def one(fn):
        return lambda u, v: np.array(fn(_entries(u, algebra_dim), _entries(v, algebra_dim)))

    return HomogeneousAction(
        name, algebra_dim, point_dim, lambda xi: f.exp(_entries(xi, algebra_dim)),
        lambda g, m: np.array(f.act(g, _entries(m, point_dim))),
        one(f.bracket), one(f.dexpinv), factors,
    )


def product_action(name: str, factors: Sequence[HomogeneousAction]) -> HomogeneousAction:
    """Direct product of ``factors``, their algebra and point blocks laid
    end to end; a group element is a list with one entry per factor.  Each
    map converts its arguments to floats once and builds one array at the
    end.  ValueError on a group element with the wrong number of factors
    or an argument of the wrong length."""
    return _action(name, [f for action in factors for f in action.factors])


# ---------------------------------------------------------------------------
# Translation group on R^n (the classical-integrator control case)


def translation_action(n: int) -> HomogeneousAction:
    """R^n acting on itself by translation; every Lie scheme collapses
    to its classical counterpart under this action."""
    return _action(f"translation-{n}", [_Factor(
        n, n, exp=lambda xs: xs,
        act=lambda g, m: [a + b for a, b in zip(m, g)],
        dexpinv=lambda u, v: v,
        bracket=lambda x, y: [0.0] * n,
    )])


# ---------------------------------------------------------------------------
# SO(3) on a flat 3x3 rotation block, from the left or from the right; a
# group element is the 9 floats of _exp_so3, R row by row


def so3_left_action() -> HomogeneousAction:
    """SO(3) on a rotation block Q by left multiplication, A.Q = A Q."""
    return _action("so3-left", [_Factor(3, 9, _exp_so3, _product, _dexpinv_so3, _cross)])


# Right multiplication A.Q = Q A has generator Q hat(xi) and is a left
# action of the *opposite* group of SO(3): its bracket is the negated
# cross product, so its ad_u is the so(3) ad_(-u) and its exact dexpinv
# is the so(3) one at -u (principal branch included).


def so3_right_action() -> HomogeneousAction:
    """The opposite group of SO(3) on a rotation block Q, A.Q = Q A."""
    return _action("so3-right", [_Factor(
        3, 9, _exp_so3,
        act=lambda g, m: _product(m, g),
        dexpinv=lambda u, v: _dexpinv_so3([-c for c in u], v),
        bracket=lambda x, y: _cross(y, x),
    )])


# ---------------------------------------------------------------------------
# SE(3) on TS^2

_TS2_TOL = 1e-9


def _shifted_rotation(g, x1, x2, x3, y1, y2, y3):
    """R x + r x R y and R y for g = (R, r), as six floats."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3, t1, t2, t3 = g
    p1 = a1 * y1 + a2 * y2 + a3 * y3
    p2 = b1 * y1 + b2 * y2 + b3 * y3
    p3 = c1 * y1 + c2 * y2 + c3 * y3
    return (
        a1 * x1 + a2 * x2 + a3 * x3 + t2 * p3 - t3 * p2,
        b1 * x1 + b2 * x2 + b3 * x3 + t3 * p1 - t1 * p3,
        c1 * x1 + c2 * x2 + c3 * x3 + t1 * p2 - t2 * p1,
        p1, p2, p3,
    )


def _act_ts2(g, m):
    """act_ts2 on floats; ValueError unless m is on TS^2."""
    q1, q2, q3, w1, w2, w3 = m
    qq = q1 * q1 + q2 * q2 + q3 * q3
    # both checks are written so that NaN fails them
    if not abs(qq - 1.0) <= 2.0 * _TS2_TOL:
        raise ValueError(f"|q| off the unit sphere by {abs(math.sqrt(qq) - 1.0):.2e}")
    qw = q1 * w1 + q2 * w2 + q3 * w3
    if not abs(qw) <= _TS2_TOL * max(1.0, math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)):
        raise ValueError(f"omega not tangent: q.omega = {qw:.2e}")
    s1, s2, s3, p1, p2, p3 = _shifted_rotation(g, w1, w2, w3, q1, q2, q3)
    return p1, p2, p3, s1, s2, s3


def se3_ts2_action() -> HomogeneousAction:
    """SE(3) on one TS^2 = {(q, w) : |q| = 1, q.w = 0}."""
    return _action("se3-ts2", [_Factor(point_dim=6, act=_act_ts2, **_SE3)])


# ---------------------------------------------------------------------------
# Coadjoint actions


def coadjoint_se3_action() -> HomogeneousAction:
    """SE(3) on se(3)* by g.mu = Ad*_{g^-1} mu; preserves coadjoint
    orbits, hence the Casimirs |Gamma| and Pi.Gamma, regardless of the
    integrator's accuracy."""

    # act: (R Pi + u x R Gamma, R Gamma)
    return _action("coadjoint-se3", [_Factor(
        point_dim=6, act=lambda g, mu: _shifted_rotation(g, *mu), **_SE3)])


# ---------------------------------------------------------------------------
# Semidirect product SO(3) x so(3)* (right-trivialized T*SO(3))
#
# Elements are (R, nu) pairs with product (R1 R2, nu1 + R1 nu2): the same
# multiplication table as SE(3), so exp and dexpinv are the se(3) kernels.


def cotangent_so3_action() -> HomogeneousAction:
    """SO(3) x so(3)* acting on (Q, pi) by left multiplication; the
    action behind the spatial heavy top for explicit schemes."""

    def act(g, m):
        # A Q, then nu + A pi
        a1, a2, a3, b1, b2, b3, c1, c2, c3, n1, n2, n3 = g
        p1, p2, p3 = m[9:]
        return (
            *_product(g[:9], m[:9]),
            n1 + a1 * p1 + a2 * p2 + a3 * p3, n2 + b1 * p1 + b2 * p2 + b3 * p3,
            n3 + c1 * p1 + c2 * p2 + c3 * p3,
        )

    return _action("cotangent-so3", [_Factor(point_dim=12, act=act, **_SE3)])


# ---------------------------------------------------------------------------
# System actions


def ts2_action(n: int = 1) -> HomogeneousAction:
    """Direct product of N copies of SE(3) acting on (TS^2)^N."""
    return product_action(f"ts2-{n}", [se3_ts2_action()] * n)


def body_top_action() -> HomogeneousAction:
    """Body-frame heavy top: right multiplication on Q, translation on
    Pi, act((A, v), (Q, Pi)) = (Q A, Pi + v)."""
    return product_action("body-top", [so3_right_action(), translation_action(3)])


def ext_top_action() -> HomogeneousAction:
    """Extended heavy top: (SO(3) x so(3)*) x R^6, point (Q, pi, p, q)."""
    return product_action("ext-top", [cotangent_so3_action(), translation_action(6)])


# Quadrotor transport group: R^6 x (TSO(3))^2 x (SE(3))^2 on the 42-dim state
#
# State layout: y(3) v(3) R1(9) Omega1(3) R2(9) Omega2(3) q1(3) w1(3) q2(3) w2(3)
# Algebra layout: xi1 xi2 | eta1 eta2 | eta3 eta4 | mu1 mu2 | mu3 mu4 (3 each)


def quadrotor_action() -> HomogeneousAction:
    rot, r3, ts2 = so3_left_action(), translation_action(3), se3_ts2_action()
    factors = [translation_action(6), rot, r3, rot, r3, ts2, ts2]
    return product_action("quadrotor", factors)
