"""Lie algebra and Lie group kernels for so(3), se(3), SO(3), SE(3).

Conventions
-----------
* so(3) elements are 3-vectors identified with skew matrices via the hat
  map; the bracket is the cross product.
* se(3) elements are flat 6-vectors ``[A, a]`` (rotational part first);
  the bracket is ``[(A,a),(B,b)] = (A x B, A x b - B x a)``.
* SE(3) group elements are ``(R, r)`` pairs with product
  ``(g1, u1)(g2, u2) = (g1 g2, g1 u2 + u1)``.
* se(3)* elements are flat 6-vectors ``[Pi, Gamma]`` paired with the
  algebra by the Euclidean dot product.

Every scalar coefficient function switches to a Taylor polynomial below
``|z| = 0.5``; the closed forms cancel catastrophically near zero while
the degree-12 polynomials are exact to machine precision on that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import cross

__all__ = [
    "BranchError",
    "hat",
    "vee",
    "exp_so3",
    "exp_se3",
    "se3_compose",
    "se3_inverse",
    "so3_bracket",
    "se3_bracket",
    "ad_bracket",
    "dexpinv_series",
    "dexpinv_so3",
    "dexpinv_se3",
    "dexp_se3",
    "AnalyticPhi",
    "DEXPINV_PHI",
    "DEXP_PHI",
    "apply_phi_ad_se3",
    "Ad_se3",
    "coAd_se3",
    "coad_se3",
    "dexp_so3_matrix",
    "dexp_star_so3",
]

_SERIES_CUTOFF = 0.5


class BranchError(ValueError):
    """Argument left the principal branch (rotation angle >= 2*pi)."""


def hat(xi):
    """Skew matrix of a 3-vector: hat(xi) @ v == xi x v."""
    x, y, z = xi
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(M, tol: float = 1e-10):
    """Inverse of the hat map; rejects matrices that are not skew."""
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M + M.T)) > tol * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not skew-symmetric")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def _poly_even(z2, coeffs):
    """Evaluate sum coeffs[k] * z2**k (Horner)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z2 + c
    return acc


# Taylor coefficients in z**2 (generated symbolically, exact rationals).
_SINC = (1.0, -1 / 6, 1 / 120, -1 / 5040, 1 / 362880, -1 / 39916800, 1 / 6227020800)
_COSC = (1 / 2, -1 / 24, 1 / 720, -1 / 40320, 1 / 3628800, -1 / 479001600, 1 / 87178291200)
_DEXP_G2 = (1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800, 1 / 1307674368000)
_DEXP_G1T = (-1 / 12, 1 / 180, -1 / 6720, 1 / 453600, -1 / 47900160, 1 / 7264857600, -1 / 1494484992000)
_DEXP_G2T = (-1 / 60, 1 / 1260, -1 / 60480, 1 / 4989600, -1 / 622702080, 1 / 108972864000, -1 / 25406244864000)
_DEXPINV_G2 = (1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160, 691 / 1307674368000, 1 / 74724249600)
_DEXPINV_G2T = (1 / 360, 1 / 7560, 1 / 201600, 1 / 5987520, 691 / 130767436800, 1 / 6227020800, 3617 / 762187345920000)


def _cosc(z):
    # (1 - cos z)/z**2
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _COSC)
    return (1.0 - np.cos(z)) / (z * z)


def _dexp_g1(z):
    return _cosc(z)


def _dexp_g2(z):
    # (z - sin z)/z**3
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXP_G2)
    return (z - np.sin(z)) / z**3


def _dexp_g1t(z):
    # d/dz[(1-cos z)/z^2] / z
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXP_G1T)
    return (z * np.sin(z) - 2.0 + 2.0 * np.cos(z)) / z**4


def _dexp_g2t(z):
    # d/dz[(z - sin z)/z^3] / z
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXP_G2T)
    return (z * (1.0 - np.cos(z)) - 3.0 * (z - np.sin(z))) / z**5


def _dexpinv_g2(z):
    # (1 - (z/2) cot(z/2)) / z**2
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXPINV_G2)
    w = 0.5 * z
    return (1.0 - w / np.tan(w)) / (z * z)


def _dexpinv_g2t(z):
    # d/dz[(1 - (z/2)cot(z/2))/z^2] / z
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXPINV_G2T)
    w = 0.5 * z
    c = 1.0 / np.tan(w)
    return (w * c + w * w * (1.0 + c * c) - 2.0) / z**4


def _floats3(v):
    """The components of a 3-vector (array, list or tuple) as floats."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    x, y, z = v
    return float(x), float(y), float(z)


def _sin_cos(a):
    # math.sin raises on an infinite angle where numpy gives NaN; keep NaN
    if a == math.inf:
        return math.nan, math.nan
    return math.sin(a), math.cos(a)


def _exp_coeffs(a2):
    """sin(a)/a and (1 - cos a)/a**2 at a = sqrt(a2)."""
    if a2 < _SERIES_CUTOFF * _SERIES_CUTOFF:
        return _poly_even(a2, _SINC), _poly_even(a2, _COSC)
    a = math.sqrt(a2)
    s, c = _sin_cos(a)
    return s / a, (1.0 - c) / a2


def _dexp_coeffs(a2):
    """(1 - cos a)/a**2 and (a - sin a)/a**3 at a = sqrt(a2)."""
    if a2 < _SERIES_CUTOFF * _SERIES_CUTOFF:
        return _poly_even(a2, _COSC), _poly_even(a2, _DEXP_G2)
    a = math.sqrt(a2)
    s, c = _sin_cos(a)
    return (1.0 - c) / a2, (a - s) / (a2 * a)


def _identity_plus_hat(x, y, z, p, q):
    """I + p hat(v) + q hat(v)^2 for v = (x, y, z), using
    hat(v)^2 = v v^T - |v|^2 I."""
    xy, xz, yz = q * x * y, q * x * z, q * y * z
    xx, yy, zz = x * x, y * y, z * z
    px, py, pz = p * x, p * y, p * z
    # one flat list and a reshape: numpy parses it twice as fast as nested rows
    return np.array(
        [
            1.0 - q * (yy + zz), xy - pz, xz + py,
            xy + pz, 1.0 - q * (xx + zz), yz - px,
            xz - py, yz + px, 1.0 - q * (xx + yy),
        ]
    ).reshape(3, 3)


def exp_so3(xi):
    """Rodrigues rotation matrix exp(hat(xi))."""
    x, y, z = _floats3(xi)
    return _identity_plus_hat(x, y, z, *_exp_coeffs(x * x + y * y + z * z))


def dexp_so3_matrix(u):
    """3x3 matrix of dexp_u on so(3): I + cosc(a) hat(u) + g2(a) hat(u)^2."""
    x, y, z = _floats3(u)
    return _identity_plus_hat(x, y, z, *_dexp_coeffs(x * x + y * y + z * z))


def dexp_star_so3(u, mu):
    """Dual of dexp_u on so(3)*: the transpose of the dexp matrix,
    mu - cosc(a) u x mu + g2(a) (u (u . mu) - a^2 mu)."""
    x, y, z = _floats3(u)
    a2 = x * x + y * y + z * z
    if math.sqrt(a2) >= 2.0 * math.pi:
        raise BranchError("||u|| >= 2*pi")
    p, q = _dexp_coeffs(a2)
    m1, m2, m3 = _floats3(mu)
    um = q * (x * m1 + y * m2 + z * m3)
    qa2 = 1.0 - q * a2
    return np.array(
        [
            qa2 * m1 - p * (y * m3 - z * m2) + um * x,
            qa2 * m2 - p * (z * m1 - x * m3) + um * y,
            qa2 * m3 - p * (x * m2 - y * m1) + um * z,
        ]
    )


def exp_se3(x):
    """Group exponential of se(3); returns an ``(R, r)`` pair.

    Equals the exponential of the 4x4 homogeneous matrix: the
    translational part is the so(3) dexp matrix applied to ``a``.
    """
    A, a = np.asarray(x[:3], dtype=float), np.asarray(x[3:6], dtype=float)
    return exp_so3(A), dexp_so3_matrix(A) @ a


def se3_compose(g1, g2):
    """SE(3) product (g1 g2, g1 u2 + u1)."""
    return g1[0] @ g2[0], g1[0] @ g2[1] + g1[1]


def se3_inverse(g):
    return g[0].T, -(g[0].T @ g[1])


def so3_bracket(u, v):
    return cross(u, v)


def se3_bracket(x, y):
    A, a = x[:3], x[3:6]
    B, b = y[:3], y[3:6]
    return np.concatenate([cross(A, B), cross(A, b) - cross(B, a)])


def ad_bracket(x, y):
    """Bracket dispatched on dimension: 3 -> so(3), 6 -> se(3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"algebra mismatch: {x.shape} vs {y.shape}")
    if x.shape == (3,):
        return so3_bracket(x, y)
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


def dexpinv_so3(u, v):
    """Exact dexpinv on so(3); principal branch ``||u|| < 2*pi``."""
    alpha = np.linalg.norm(u)
    if alpha >= 2.0 * np.pi:
        raise BranchError("||u|| >= 2*pi")
    uv = cross(u, v)
    return v - 0.5 * uv + _dexpinv_g2(alpha) * cross(u, uv)


@dataclass(frozen=True)
class AnalyticPhi:
    """Scalar data of an analytic function of ad on se(3).

    ``phi0`` is phi(0); the four callables are the g1/g1~/g2/g2~
    functions of the rotation angle, each with its own series fallback.
    """

    phi0: float
    g1: Callable[[float], float]
    g1t: Callable[[float], float]
    g2: Callable[[float], float]
    g2t: Callable[[float], float]


DEXPINV_PHI = AnalyticPhi(
    phi0=1.0,
    g1=lambda z: -0.5,
    g1t=lambda z: 0.0,
    g2=_dexpinv_g2,
    g2t=_dexpinv_g2t,
)

DEXP_PHI = AnalyticPhi(
    phi0=1.0,
    g1=_dexp_g1,
    g1t=_dexp_g1t,
    g2=_dexp_g2,
    g2t=_dexp_g2t,
)


def apply_phi_ad_se3(x, y, phi: AnalyticPhi):
    """Evaluate phi(ad_x) y on se(3) from the closed two-block formula."""
    A, a = x[:3], x[3:6]
    B, b = y[:3], y[3:6]
    alpha = np.linalg.norm(A)
    rho = float(A @ a)
    g1 = phi.g1(alpha)
    g1t = phi.g1t(alpha)
    g2 = phi.g2(alpha)
    g2t = phi.g2t(alpha)
    AxB = cross(A, B)
    AxAxB = cross(A, AxB)
    C = phi.phi0 * B + g1 * AxB + g2 * AxAxB
    c = (
        phi.phi0 * b
        + g1 * (cross(a, B) + cross(A, b))
        + rho * g1t * AxB
        + rho * g2t * AxAxB
        + g2 * (cross(a, AxB) + cross(A, cross(a, B)) + cross(A, cross(A, b)))
    )
    return np.concatenate([C, c])


def dexpinv_se3(u, v):
    """Exact dexpinv on se(3); principal branch on the rotational part."""
    if np.linalg.norm(u[:3]) >= 2.0 * np.pi:
        raise BranchError("rotational norm >= 2*pi")
    return apply_phi_ad_se3(u, v, DEXPINV_PHI)


def dexp_se3(u, v):
    """Exact dexp on se(3) (right-trivialized differential of exp)."""
    return apply_phi_ad_se3(u, v, DEXP_PHI)


def Ad_se3(g, x):
    """Adjoint action of SE(3): Ad_(R,r)(u,v) = (Ru, Rv + hat(r) Ru)."""
    R, r = g
    u, v = x[:3], x[3:6]
    Ru = R @ u
    return np.concatenate([Ru, R @ v + cross(r, Ru)])


def coAd_se3(g, mu):
    """Coadjoint map Ad*_(g,u) on se(3)*: (g^-1(Pi - u x Gamma), g^-1 Gamma)."""
    R, u = g
    Pi, Gamma = mu[:3], mu[3:6]
    return np.concatenate([R.T @ (Pi - cross(u, Gamma)), R.T @ Gamma])


def coad_se3(x, mu):
    """Infinitesimal coadjoint map ad*_(xi,u) on se(3)*."""
    xi, u = x[:3], x[3:6]
    Pi, Gamma = mu[:3], mu[3:6]
    return np.concatenate([-cross(xi, Pi) - cross(u, Gamma), -cross(xi, Gamma)])
