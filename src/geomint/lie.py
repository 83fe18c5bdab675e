"""Lie algebra and Lie group kernels for so(3), se(3), SO(3), SE(3).

Conventions
-----------
* so(3) elements are 3-vectors identified with skew matrices via the hat
  map; the bracket is the cross product.
* se(3) elements are flat 6-vectors ``[A, a]`` (rotational part first);
  the bracket is ``[(A,a),(B,b)] = (A x B, A x b - B x a)``.
* SE(3) group elements are ``(R, r)`` pairs with product
  ``(g1, u1)(g2, u2) = (g1 g2, g1 u2 + u1)``.

Every scalar coefficient function switches to a Taylor polynomial below
``|z| = 0.5``; the closed forms cancel catastrophically near zero while
the degree-12 polynomials are exact to machine precision on that range.

The so(3) coefficients come from two kernels: :func:`_exp_coeffs` gives
sin(a)/a and (1 - cos a)/a**2 for exp, and :func:`_exp_dexp_coeffs` adds
(a - sin a)/a**3 for dexp, so that exp evaluates no polynomial it discards.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _cross

__all__ = [
    "BranchError",
    "hat",
    "exp_so3",
    "exp_se3",
    "dexpinv_so3",
    "dexpinv_se3",
    "dexp_star_so3",
]

_SERIES_CUTOFF = 0.5
# the branch bound (2 pi)^2, so that a test on a**2 needs no root
_TWO_PI_SQ = (2.0 * math.pi) ** 2


class BranchError(ValueError):
    """Argument left the principal branch (rotation angle >= 2*pi)."""


def hat(xi):
    """Skew matrix of a 3-vector: hat(xi) @ v == xi x v."""
    x, y, z = xi
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _poly_even(z2, coeffs):
    """Evaluate sum coeffs[k] * z2**k for seven coefficients (Horner)."""
    c0, c1, c2, c3, c4, c5, c6 = coeffs
    return (((((c6 * z2 + c5) * z2 + c4) * z2 + c3) * z2 + c2) * z2 + c1) * z2 + c0


# Taylor coefficients in z**2 (generated symbolically, exact rationals).
_SINC = (1.0, -1 / 6, 1 / 120, -1 / 5040, 1 / 362880, -1 / 39916800, 1 / 6227020800)
_COSC = (1 / 2, -1 / 24, 1 / 720, -1 / 40320, 1 / 3628800, -1 / 479001600, 1 / 87178291200)
_DEXP_G2 = (1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800, 1 / 1307674368000)
_DEXPINV_G2 = (1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160, 691 / 1307674368000, 1 / 74724249600)
_DEXPINV_G2T = (1 / 360, 1 / 7560, 1 / 201600, 1 / 5987520, 691 / 130767436800, 1 / 6227020800, 3617 / 762187345920000)


# d/d(z**2) of the _COSC and _DEXP_G2 polynomials, coefficients k * c_k,
# with the next Taylor term 7 * c_7 (c_7 = -1/16! and -1/17!) as the seventh
_COSC_D = tuple(k * c for k, c in enumerate(_COSC))[1:] + (-7 / 20922789888000,)
_DEXP_G2_D = tuple(k * c for k, c in enumerate(_DEXP_G2))[1:] + (-7 / 355687428096000,)


def _dexpinv_g2(z):
    # (1 - (z/2) cot(z/2)) / z**2
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXPINV_G2)
    w = 0.5 * z
    return (1.0 - w / math.tan(w)) / (z * z)


def _dexpinv_g2t(z):
    # d/dz[(1 - (z/2)cot(z/2))/z^2] / z
    if abs(z) < _SERIES_CUTOFF:
        return _poly_even(z * z, _DEXPINV_G2T)
    w = 0.5 * z
    c = 1.0 / math.tan(w)
    return (w * c + w * w * (1.0 + c * c) - 2.0) / z**4


def _floats(v):
    """The components of a vector (array, list or tuple) as floats."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    return [float(c) for c in v]


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


def _exp_dexp_coeffs(a2):
    """sin(a)/a, (1 - cos a)/a**2 and (a - sin a)/a**3 at a = sqrt(a2); the
    first two are those of :func:`_exp_coeffs`, bit for bit."""
    if a2 < _SERIES_CUTOFF * _SERIES_CUTOFF:
        return _poly_even(a2, _SINC), _poly_even(a2, _COSC), _poly_even(a2, _DEXP_G2)
    a = math.sqrt(a2)
    s, c = _sin_cos(a)
    return s / a, (1.0 - c) / a2, (a - s) / (a2 * a)


def _dexp_slopes(a2):
    """d/d(a**2) of (1 - cos a)/a**2 and (a - sin a)/a**3 at a = sqrt(a2)."""
    if a2 < _SERIES_CUTOFF * _SERIES_CUTOFF:
        return _poly_even(a2, _COSC_D), _poly_even(a2, _DEXP_G2_D)
    a = math.sqrt(a2)
    s, c = _sin_cos(a)
    a4 = 2.0 * a2 * a2
    return (a * s - 2.0 * (1.0 - c)) / a4, (a * (1.0 - c) - 3.0 * (a - s)) / (a4 * a)


def _rotation(x, y, z, p, q, *tail):
    """I + p hat(v) + q hat(v)^2 for v = (x, y, z), using hat(v)^2 =
    v v^T - |v|^2 I, row by row and then ``tail``, as one flat tuple."""
    xy, xz, yz = q * x * y, q * x * z, q * y * z
    xx, yy, zz = x * x, y * y, z * z
    px, py, pz = p * x, p * y, p * z
    return (
        1.0 - q * (yy + zz), xy - pz, xz + py,
        xy + pz, 1.0 - q * (xx + zz), yz - px,
        xz - py, yz + px, 1.0 - q * (xx + yy),
        *tail,
    )


def _exp_so3(v):
    """exp_so3 of three floats as nine, row by row."""
    x, y, z = v
    return _rotation(x, y, z, *_exp_coeffs(x * x + y * y + z * z))


def exp_so3(xi):
    """Rodrigues rotation matrix exp(hat(xi))."""
    return np.array(_exp_so3(_floats(xi))).reshape(3, 3)


def dexp_star_so3(u, mu):
    """Dual of dexp_u on so(3)*: the transpose of the dexp matrix,
    mu - cosc(a) u x mu + g2(a) (u (u . mu) - a^2 mu)."""
    x, y, z = _floats(u)
    m1, m2, m3 = _floats(mu)
    return np.array(_dexp_star(x, y, z, m1, m2, m3))


def _dexp_star(x, y, z, m1, m2, m3, *tail):
    """dexp_star_so3 of (x, y, z) and (m1, m2, m3) as floats, then ``tail``."""
    a2 = x * x + y * y + z * z
    if a2 >= _TWO_PI_SQ:
        raise BranchError("||u|| >= 2*pi")
    _, p, q = _exp_dexp_coeffs(a2)
    um = q * (x * m1 + y * m2 + z * m3)
    qa2 = 1.0 - q * a2
    return (
        qa2 * m1 - p * (y * m3 - z * m2) + um * x,
        qa2 * m2 - p * (z * m1 - x * m3) + um * y,
        qa2 * m3 - p * (x * m2 - y * m1) + um * z,
        *tail,
    )


def _dexp_star_jacobian(x, y, z, m1, m2, m3, a2, p, q):
    """The derivative in u of ``_dexp_star(u, m)`` at u = (x, y, z), as nine
    floats row by row, given a2 = |u|^2 and (p, q), the last two of
    ``_exp_dexp_coeffs(a2)``: p hat(m) + q ((u.m) I + u m^T - 2 m u^T) + r u^T
    with r = 2 q' (u (u.m) - |u|^2 m) - 2 p' u x m, where ' is d/d|u|^2."""
    dp, dq = _dexp_slopes(a2)
    um = x * m1 + y * m2 + z * m3
    # entry (i, j) is p hat(m)_ij + q (u.m) delta_ij + u_i t_j + s_i u_j
    # with t = q m and s = r - 2 q m
    dp, dq, q2 = 2.0 * dp, 2.0 * dq, 2.0 * q
    s1 = dq * (x * um - a2 * m1) - dp * (y * m3 - z * m2) - q2 * m1
    s2 = dq * (y * um - a2 * m2) - dp * (z * m1 - x * m3) - q2 * m2
    s3 = dq * (z * um - a2 * m3) - dp * (x * m2 - y * m1) - q2 * m3
    t1, t2, t3 = q * m1, q * m2, q * m3
    p1, p2, p3, d = p * m1, p * m2, p * m3, q * um
    return (
        d + x * t1 + s1 * x, x * t2 + s1 * y - p3, x * t3 + s1 * z + p2,
        y * t1 + s2 * x + p3, d + y * t2 + s2 * y, y * t3 + s2 * z - p1,
        z * t1 + s3 * x - p2, z * t2 + s3 * y + p1, d + z * t3 + s3 * z,
    )


def exp_se3(x):
    """Group exponential of se(3); returns an ``(R, r)`` pair.

    Equals the exponential of the 4x4 homogeneous matrix: r is the so(3)
    dexp matrix applied to a, a + cosc A x a + g2 (A (A . a) - |A|^2 a).
    """
    g = np.array(_exp_se3(_floats(x)))
    return g[:9].reshape(3, 3), g[9:]


def _exp_se3(v):
    """exp_se3 of six floats as twelve: R row by row, then r."""
    x, y, z, a1, a2, a3 = v
    t2 = x * x + y * y + z * z
    s, p = _exp_coeffs(t2)
    # g2 = (t - sin t)/t^3 = (1 - sinc t)/t^2
    q = _poly_even(t2, _DEXP_G2) if t2 < _SERIES_CUTOFF * _SERIES_CUTOFF else (1.0 - s) / t2
    qa = q * (x * a1 + y * a2 + z * a3)
    qt = 1.0 - q * t2
    return _rotation(
        x, y, z, s, p,
        qt * a1 + p * (y * a3 - z * a2) + qa * x,
        qt * a2 + p * (z * a1 - x * a3) + qa * y,
        qt * a3 + p * (x * a2 - y * a1) + qa * z,
    )


def _se3_bracket(x, y):
    """The se(3) bracket of six and six floats, as six floats."""
    A, a, B, b = x[:3], x[3:], y[:3], y[3:]
    p, q = _cross(A, b), _cross(B, a)
    return (*_cross(A, B), p[0] - q[0], p[1] - q[1], p[2] - q[2])


def dexpinv_so3(u, v):
    """Exact dexpinv on so(3); principal branch ``||u|| < 2*pi``:
    v - 1/2 u x v + g2 u x (u x v)."""
    return np.array(_dexpinv_so3(_floats(u), _floats(v)))


def _dexpinv_so3(u, v):
    """dexpinv_so3 of three and three floats, as three floats."""
    x, y, z = u
    alpha = math.sqrt(x * x + y * y + z * z)
    if alpha >= 2.0 * math.pi:
        raise BranchError("||u|| >= 2*pi")
    v1, v2, v3 = v
    w1, w2, w3 = y * v3 - z * v2, z * v1 - x * v3, x * v2 - y * v1
    g = _dexpinv_g2(alpha)
    return (
        v1 - 0.5 * w1 + g * (y * w3 - z * w2),
        v2 - 0.5 * w2 + g * (z * w1 - x * w3),
        v3 - 0.5 * w3 + g * (x * w2 - y * w1),
    )


def dexpinv_se3(u, v):
    """Exact dexpinv on se(3); principal branch on the rotational part.

    For u = (A, a), v = (B, b), rho = A.a and alpha = |A|, dexpinv_u v =
    (C, c) with
    C = B - 1/2 A x B + g2 A x (A x B),
    c = b - 1/2 W + rho g2~ A x (A x B) + g2 (a x (A x B) + A x W),
    W = a x B + A x b,
    where g2 = (1 - (alpha/2) cot(alpha/2)) / alpha^2 and g2~ = g2'/alpha.
    """
    return np.array(_dexpinv_se3(_floats(u), _floats(v)))


def _dexpinv_se3(u, v):
    """dexpinv_se3 of six and six floats, as six floats."""
    x, y, z, a1, a2, a3 = u
    alpha = math.sqrt(x * x + y * y + z * z)
    if alpha >= 2.0 * math.pi:
        raise BranchError("rotational norm >= 2*pi")
    B1, B2, B3, b1, b2, b3 = v
    g = _dexpinv_g2(alpha)
    gt = (x * a1 + y * a2 + z * a3) * _dexpinv_g2t(alpha)
    # P = A x B, Q = A x P
    P1, P2, P3 = y * B3 - z * B2, z * B1 - x * B3, x * B2 - y * B1
    Q1, Q2, Q3 = y * P3 - z * P2, z * P1 - x * P3, x * P2 - y * P1
    # W = a x B + A x b
    W1 = a2 * B3 - a3 * B2 + y * b3 - z * b2
    W2 = a3 * B1 - a1 * B3 + z * b1 - x * b3
    W3 = a1 * B2 - a2 * B1 + x * b2 - y * b1
    return (
        B1 - 0.5 * P1 + g * Q1, B2 - 0.5 * P2 + g * Q2, B3 - 0.5 * P3 + g * Q3,
        b1 - 0.5 * W1 + gt * Q1 + g * (a2 * P3 - a3 * P2 + y * W3 - z * W2),
        b2 - 0.5 * W2 + gt * Q2 + g * (a3 * P1 - a1 * P3 + z * W1 - x * W3),
        b3 - 0.5 * W3 + gt * Q3 + g * (a1 * P2 - a2 * P1 + x * W2 - y * W1),
    )
