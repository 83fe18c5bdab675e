from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from _reference import dexpinv_series, se3_bracket
from geomint.kernels import cross
from geomint.lie import (
    BranchError,
    _TWO_PI_SQ,
    _dexp_slopes,
    _dexp_star,
    _dexp_star_jacobian,
    _dexpinv_g2,
    _dexpinv_g2t,
    _exp_coeffs,
    _exp_dexp_coeffs,
    _rotation,
    _se3_bracket,
    dexp_star_so3,
    dexpinv_se3,
    dexpinv_so3,
    exp_se3,
    exp_so3,
    hat,
)

rng = np.random.default_rng(42)

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
vec3 = st.tuples(small, small, small).map(np.array)
vec6 = st.tuples(*(small,) * 6).map(np.array)


def _homogeneous(x):
    M = np.zeros((4, 4))
    M[:3, :3] = hat(x[:3])
    M[:3, 3] = x[3:6]
    return M


# -- reference maps the integrators do not use ---------------------------------


def vee(M, tol: float = 1e-10):
    """Inverse of the hat map; rejects matrices that are not skew."""
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M + M.T)) > tol * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not skew-symmetric")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


# Taylor coefficients in z**2 of the dexp coefficient functions g1, g1~,
# g2, g2~ below the 0.5 cutoff, where their closed forms cancel
_DEXP_G1 = (1 / 2, -1 / 24, 1 / 720, -1 / 40320, 1 / 3628800, -1 / 479001600, 1 / 87178291200)
_DEXP_G2 = (1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800, 1 / 1307674368000)
_DEXP_G1T = (-1 / 12, 1 / 180, -1 / 6720, 1 / 453600, -1 / 47900160, 1 / 7264857600, -1 / 1494484992000)
_DEXP_G2T = (-1 / 60, 1 / 1260, -1 / 60480, 1 / 4989600, -1 / 622702080, 1 / 108972864000, -1 / 25406244864000)


def _series_or(z, coeffs, closed):
    if abs(z) < 0.5:
        return sum(c * z ** (2 * k) for k, c in enumerate(coeffs))
    return closed(z)


def dexp_se3(u, v):
    """Exact dexp on se(3) (right-trivialized differential of exp): the
    two-block closed form of phi(ad_u) v for phi(z) = (e^z - 1)/z."""
    A, a = u[:3], u[3:6]
    B, b = v[:3], v[3:6]
    alpha = np.linalg.norm(A)
    rho = float(A @ a)
    # (1 - cos z)/z^2, (z - sin z)/z^3 and their z-derivatives over z
    g1 = _series_or(alpha, _DEXP_G1, lambda z: (1.0 - np.cos(z)) / z**2)
    g2 = _series_or(alpha, _DEXP_G2, lambda z: (z - np.sin(z)) / z**3)
    g1t = _series_or(
        alpha, _DEXP_G1T, lambda z: (z * np.sin(z) - 2.0 + 2.0 * np.cos(z)) / z**4
    )
    g2t = _series_or(
        alpha, _DEXP_G2T, lambda z: (z * (1.0 - np.cos(z)) - 3.0 * (z - np.sin(z))) / z**5
    )
    AxB = cross(A, B)
    AxAxB = cross(A, AxB)
    C = B + g1 * AxB + g2 * AxAxB
    c = (
        b
        + g1 * (cross(a, B) + cross(A, b))
        + rho * g1t * AxB
        + rho * g2t * AxAxB
        + g2 * (cross(a, AxB) + cross(A, cross(a, B)) + cross(A, cross(A, b)))
    )
    return np.concatenate([C, c])


def dexp_so3_matrix(u):
    """3x3 matrix of dexp_u on so(3): I + g1 hat(u) + g2 hat(u)^2."""
    alpha = np.linalg.norm(u)
    g1 = _series_or(alpha, _DEXP_G1, lambda z: (1.0 - np.cos(z)) / z**2)
    g2 = _series_or(alpha, _DEXP_G2, lambda z: (z - np.sin(z)) / z**3)
    H = hat(u)
    return np.eye(3) + g1 * H + g2 * (H @ H)


# numpy references for the scalar se(3) kernels and dexpinv_so3: the same
# closed forms through np.tan, np.linalg.norm and kernels.cross


def _dexpinv_g2_ref(z):
    if abs(z) < 0.5:
        return sum(c * z ** (2 * k) for k, c in enumerate(_DEXPINV_G2))
    w = 0.5 * z
    return (1.0 - w / np.tan(w)) / (z * z)


def _dexpinv_g2t_ref(z):
    if abs(z) < 0.5:
        return sum(c * z ** (2 * k) for k, c in enumerate(_DEXPINV_G2T))
    w = 0.5 * z
    c = 1.0 / np.tan(w)
    return (w * c + w * w * (1.0 + c * c) - 2.0) / z**4


_DEXPINV_G2 = (1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160, 691 / 1307674368000, 1 / 74724249600)
_DEXPINV_G2T = (1 / 360, 1 / 7560, 1 / 201600, 1 / 5987520, 691 / 130767436800, 1 / 6227020800, 3617 / 762187345920000)


def exp_se3_ref(x):
    A, a = np.asarray(x[:3], dtype=float), np.asarray(x[3:6], dtype=float)
    return exp_so3(A), dexp_so3_matrix(A) @ a


def dexpinv_so3_ref(u, v):
    alpha = np.linalg.norm(u)
    uv = cross(u, v)
    return v - 0.5 * uv + _dexpinv_g2_ref(alpha) * cross(u, uv)


def dexpinv_se3_ref(u, v):
    A, a = u[:3], u[3:6]
    B, b = v[:3], v[3:6]
    alpha = np.linalg.norm(A)
    g2 = _dexpinv_g2_ref(alpha)
    AxB = cross(A, B)
    AxAxB = cross(A, AxB)
    C = B - 0.5 * AxB + g2 * AxAxB
    c = (
        b
        - 0.5 * (cross(a, B) + cross(A, b))
        + float(A @ a) * _dexpinv_g2t_ref(alpha) * AxAxB
        + g2 * (cross(a, AxB) + cross(A, cross(a, B)) + cross(A, cross(A, b)))
    )
    return np.concatenate([C, c])


# -- hat / vee ---------------------------------------------------------------


def test_hat_example():
    np.testing.assert_array_equal(
        hat([1.0, 2.0, 3.0]),
        [[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]],
    )


@given(vec3, vec3)
def test_hat_acts_as_cross(u, v):
    np.testing.assert_allclose(hat(u) @ v, np.cross(u, v), atol=1e-12)


@given(vec3)
def test_vee_inverts_hat(u):
    np.testing.assert_array_equal(vee(hat(u)), u)


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError):
        vee(np.eye(3))


# -- exponentials ------------------------------------------------------------


@given(vec3)
@settings(max_examples=50)
def test_exp_so3_matches_expm(u):
    np.testing.assert_allclose(exp_so3(u), expm(hat(u)), atol=1e-12)


def test_exp_so3_quarter_turn():
    R = exp_so3([np.pi / 2, 0.0, 0.0])
    np.testing.assert_allclose(R @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-15)


@given(vec3)
def test_exp_so3_is_rotation(u):
    R = exp_so3(u)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-13)
    assert abs(np.linalg.det(R) - 1.0) < 1e-13


@given(vec6)
@settings(max_examples=50)
def test_exp_se3_matches_expm(x):
    R, r = exp_se3(x)
    M = expm(_homogeneous(x))
    np.testing.assert_allclose(R, M[:3, :3], atol=1e-12)
    np.testing.assert_allclose(r, M[:3, 3], atol=1e-12)


# -- brackets ----------------------------------------------------------------


@given(vec6, vec6, vec6)
@settings(max_examples=50)
def test_se3_jacobi_identity(x, y, z):
    total = (
        se3_bracket(x, se3_bracket(y, z))
        + se3_bracket(y, se3_bracket(z, x))
        + se3_bracket(z, se3_bracket(x, y))
    )
    np.testing.assert_allclose(total, np.zeros(6), atol=1e-9)


def test_se3_bracket_matches_matrix_commutator():
    x, y = rng.normal(size=6), rng.normal(size=6)
    M = _homogeneous(x) @ _homogeneous(y) - _homogeneous(y) @ _homogeneous(x)
    np.testing.assert_allclose(_homogeneous(se3_bracket(x, y)), M, atol=1e-13)
    np.testing.assert_allclose(_se3_bracket(x.tolist(), y.tolist()), se3_bracket(x, y), atol=1e-15)


# -- dexp / dexpinv ----------------------------------------------------------


def test_dexp_so3_matches_finite_difference():
    # right-trivialized: d/dt exp(u + t v) = hat(dexp_u v) exp(u)
    u, v = rng.normal(size=3), rng.normal(size=3)
    eps = 1e-6
    D = (exp_so3(u + eps * v) - exp_so3(u - eps * v)) / (2 * eps)
    np.testing.assert_allclose(vee(D @ exp_so3(u).T, tol=1e-4),
                               dexp_so3_matrix(u) @ v, atol=1e-8)


def test_dexp_se3_matches_finite_difference():
    u, v = 0.8 * rng.normal(size=6), rng.normal(size=6)
    eps = 1e-6
    Mp = expm(_homogeneous(u + eps * v))
    Mm = expm(_homogeneous(u - eps * v))
    D = (Mp - Mm) / (2 * eps)
    G = np.eye(4)
    G[:3, :3], G[:3, 3] = exp_se3(u)
    W = D @ np.linalg.inv(G)
    got = np.concatenate([vee(W[:3, :3], tol=1e-4), W[:3, 3]])
    np.testing.assert_allclose(got, dexp_se3(u, v), atol=1e-7)


@given(vec3, vec3)
def test_dexpinv_so3_inverts_dexp(u, v):
    np.testing.assert_allclose(
        dexp_so3_matrix(u) @ dexpinv_so3(u, v), v, atol=1e-10
    )


def test_dexpinv_se3_inverts_dexp():
    # rotation angles capped at 6: at the branch edge 2 pi dexpinv is
    # singular (BranchError beyond it), and near it the round trip loses
    # digits for any seed
    for _ in range(20):
        u, v = 2.0 * rng.normal(size=6), rng.normal(size=6)
        u[:3] *= min(1.0, 6.0 / np.linalg.norm(u[:3]))
        np.testing.assert_allclose(dexp_se3(u, dexpinv_se3(u, v)), v, atol=1e-10)


def test_dexpinv_series_low_orders():
    u, v = rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_array_equal(dexpinv_series(u, v, 1), v)
    np.testing.assert_allclose(
        dexpinv_series(u, v, 2), v - 0.5 * np.cross(u, v), atol=1e-15
    )
    with pytest.raises(ValueError):
        dexpinv_series(u, v, 0)
    with pytest.raises(ValueError):
        dexpinv_series(u, v, 9)


@pytest.mark.parametrize("dim,exact", [(3, dexpinv_so3), (6, dexpinv_se3)])
def test_dexpinv_series_truncation_decay(dim, exact):
    # agreement with the order-8 expansion is O(||u||^9): halving the
    # argument from 0.2 shrinks the discrepancy by at least 2^8 * 0.8
    u = rng.normal(size=dim)
    u = 0.2 * u / np.linalg.norm(u)
    v = rng.normal(size=dim)
    d1 = np.linalg.norm(exact(u, v) - dexpinv_series(u, v, 8))
    d2 = np.linalg.norm(exact(0.5 * u, v) - dexpinv_series(0.5 * u, v, 8))
    assert d1 > 0
    assert d1 / d2 >= 2**8 * 0.8


def test_series_closed_form_agree_at_cutoff():
    # scalar coefficients switch from closed forms to Taylor polynomials
    # at angle 0.5; the value must be continuous across the switch
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    v = rng.normal(size=3)
    w6 = rng.normal(size=6)
    for eps in (1e-9, 1e-7):
        # the two points genuinely differ by O(eps); any branch mismatch
        # would show up as a jump far above that
        atol = 50.0 * eps
        below, above = (0.5 - eps) * direction, (0.5 + eps) * direction
        np.testing.assert_allclose(exp_so3(below), exp_so3(above), atol=atol)
        np.testing.assert_allclose(dexpinv_so3(below, v), dexpinv_so3(above, v), atol=atol)
        u6b = np.concatenate([below, [0.1, -0.2, 0.3]])
        u6a = np.concatenate([above, [0.1, -0.2, 0.3]])
        np.testing.assert_allclose(dexpinv_se3(u6b, w6), dexpinv_se3(u6a, w6), atol=atol)
        np.testing.assert_allclose(dexp_se3(u6b, w6), dexp_se3(u6a, w6), atol=atol)


def test_dexp_so3_series_closed_form_agree_at_cutoff():
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    mu = rng.normal(size=3)
    for eps in (1e-9, 1e-7):
        atol = 50.0 * eps
        below, above = (0.5 - eps) * direction, (0.5 + eps) * direction
        np.testing.assert_allclose(dexp_star_so3(below, mu), dexp_star_so3(above, mu), atol=atol)


@pytest.mark.parametrize("scale", [0.1, 2.0])
def test_so3_kernels_accept_lists_tuples_and_slices(scale):
    u = scale * rng.normal(size=3)
    mu = rng.normal(size=3)
    strided = np.empty(6)
    strided[::2], strided[1::2] = u, mu
    for arg in (list(u), tuple(u), strided[::2], np.concatenate([u, mu])[:3]):
        np.testing.assert_array_equal(exp_so3(arg), exp_so3(u))
        np.testing.assert_array_equal(dexp_star_so3(arg, list(mu)), dexp_star_so3(u, mu))
        np.testing.assert_array_equal(dexpinv_so3(arg, tuple(mu)), dexpinv_so3(u, mu))
    with pytest.raises(BranchError):
        dexp_star_so3([0.0, 2.0 * np.pi, 0.0], (1.0, 2.0, 3.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_so3_kernels_give_nan_for_non_finite_input(bad):
    # as numpy's sin and cos do: a NaN result, not a math domain error
    u = np.array([bad, 0.5, 0.0])
    assert np.isnan(exp_so3(u)).any()
    _non_finite_or_branch_error(dexp_star_so3, u, np.ones(3))
    _non_finite_or_branch_error(dexpinv_so3, u, np.ones(3))


# Closer to 2*pi, g2 grows like 1/(2*pi - |A|) and amplifies the one-ulp
# difference between the two ways of forming |A|.
@pytest.mark.parametrize("lo,hi", [(0.0, 0.5), (0.5, 0.99 * 2.0 * np.pi)])
def test_se3_kernels_match_numpy_reference(lo, hi):
    draws = np.random.default_rng(11)
    for _ in range(500):
        d = draws.normal(size=3)
        A = draws.uniform(lo, hi) * d / np.linalg.norm(d)
        u = np.concatenate([A, draws.uniform(0.1, 5.0) * draws.normal(size=3)])
        v = draws.normal(size=6)
        pairs = [
            (exp_se3(u)[0], exp_se3_ref(u)[0]),
            (exp_se3(u)[1], exp_se3_ref(u)[1]),
            (dexpinv_se3(u, v), dexpinv_se3_ref(u, v)),
            (dexpinv_so3(A, v[:3]), dexpinv_so3_ref(A, v[:3])),
        ]
        for new, ref in pairs:
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("scale", [0.1, 2.0])
def test_se3_kernels_accept_lists_tuples_and_slices(scale):
    u = np.concatenate([scale * rng.normal(size=3), rng.normal(size=3)])
    v = rng.normal(size=6)
    strided = np.empty(12)
    strided[::2], strided[1::2] = u, v
    for arg in (list(u), tuple(u), strided[::2], np.concatenate([u, v])[:6]):
        R, r = exp_se3(arg)
        np.testing.assert_array_equal(R, exp_se3(u)[0])
        np.testing.assert_array_equal(r, exp_se3(u)[1])
        np.testing.assert_array_equal(dexpinv_se3(arg, list(v)), dexpinv_se3(u, v))
        np.testing.assert_array_equal(dexpinv_so3(arg[:3], tuple(v[:3])), dexpinv_so3(u[:3], v[:3]))
    with pytest.raises(BranchError):
        dexpinv_se3([0.0, 2.0 * np.pi, 0.0, 1.0, 1.0, 1.0], tuple(v))


def _non_finite_or_branch_error(fn, *args):
    # BranchError only: a math domain ValueError must fail the test
    try:
        out = fn(*args)
    except BranchError:
        return
    parts = out if isinstance(out, tuple) else (out,)
    assert not all(np.all(np.isfinite(p)) for p in parts)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("slot", range(6))
def test_se3_kernels_give_nan_or_branch_error_for_non_finite_input(bad, slot):
    u = np.array([0.3, 4.0, -0.2, 1.0, -2.0, 0.5])
    v = np.array([1.0, 0.5, -1.5, 0.2, 0.3, -0.4])
    bad_u, bad_v = u.copy(), v.copy()
    bad_u[slot] = bad_v[slot] = bad
    _non_finite_or_branch_error(exp_se3, bad_u)
    _non_finite_or_branch_error(dexpinv_se3, bad_u, v)
    _non_finite_or_branch_error(dexpinv_se3, u, bad_v)
    # the bad entry is in u for slots 0-2 and in v for slots 3-5
    _non_finite_or_branch_error(dexpinv_so3, bad_u[:3], bad_v[3:])


def test_apply_phi_matches_series_for_dexpinv():
    u = 0.1 * rng.normal(size=6)
    v = rng.normal(size=6)
    np.testing.assert_allclose(dexpinv_se3(u, v), dexpinv_series(u, v, 8), atol=1e-12)


def test_apply_phi_dexp_matches_bracket_series():
    # dexp has coefficients 1/(k+1)! on ad_u^k
    u = 0.1 * rng.normal(size=6)
    v = rng.normal(size=6)
    ref = np.zeros(6)
    w = v.copy()
    fact = 1.0
    for k in range(12):
        ref += w / fact
        w = se3_bracket(u, w)
        fact *= k + 2
    np.testing.assert_allclose(dexp_se3(u, v), ref, atol=1e-12)


# -- branch handling ---------------------------------------------------------


def test_branch_errors():
    u = np.array([2.0 * np.pi, 0.0, 0.0])
    with pytest.raises(BranchError):
        dexpinv_so3(u, np.ones(3))
    with pytest.raises(BranchError):
        dexpinv_se3(np.concatenate([u, np.zeros(3)]), np.ones(6))
    with pytest.raises(BranchError):
        dexp_star_so3(u, np.ones(3))
    # just inside the branch is fine
    dexpinv_so3(0.99 * u, np.ones(3))


# -- coadjoint pairing -------------------------------------------------------


def test_dexp_star_so3_is_transpose():
    u, mu, v = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    assert abs(dexp_star_so3(u, mu) @ v - mu @ (dexp_so3_matrix(u) @ v)) < 1e-12


# -- derivative kernels of the implicit step's Jacobian -----------------------


@pytest.mark.parametrize("angle", [0.2, 0.49, 0.51, 2.0, 6.0])
def test_dexp_matrix_transpose_is_dexp_star(angle):
    # tolerance fixed beforehand: 1e-15 relative to |D| |m|, the scale of
    # the rounding of a 3x3 product
    for _ in range(200):
        u = rng.normal(size=3)
        u *= angle / np.linalg.norm(u)
        m = 50.0 * rng.normal(size=3)
        x, y, z = u.tolist()
        D = np.array(_rotation(x, y, z, *_exp_dexp_coeffs(x * x + y * y + z * z)[1:]))
        D = D.reshape(3, 3)
        err = np.abs(D.T @ m - np.array(_dexp_star(*u, *m))).max()
        assert err <= 1e-15 * np.linalg.norm(D) * np.linalg.norm(m)


def test_dexp_slopes_series_and_closed_forms_agree_at_cutoff():
    # just below a^2 = 0.25 the Taylor polynomials, at it the closed forms
    series = _dexp_slopes(np.nextafter(0.25, 0.0))
    closed = _dexp_slopes(0.25)
    np.testing.assert_allclose(series, closed, rtol=1e-12, atol=0)


def _bernoulli(n):
    """B_0 .. B_n as exact fractions, from sum_k C(m + 1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


_TERMS = 20
_B = _bernoulli(2 * _TERMS + 4)


def _series(z2, coeff):
    """sum_k coeff(k) z2**k over the first _TERMS terms, exactly."""
    return sum(coeff(k) * z2**k for k in range(_TERMS))


def _exact_coefficients(a):
    """The seven scalar coefficient functions at the float a, by exact
    Taylor sums: sin(a)/a, (1 - cos a)/a^2 and (a - sin a)/a^3 and the
    slopes of the last two in a^2, all at a^2 = a * a as rounded, then
    (1 - (a/2) cot(a/2))/a^2 and its derivative over a, from Bernoulli
    numbers, since (z/2) cot(z/2) = sum_n (-1)^n B_2n z^2n / (2n)!."""
    a2, z2 = Fraction(a * a), Fraction(a) ** 2
    # the dexpinv sums start at n = 1 and n = 2; k counts from there
    return {
        "sinc": _series(a2, lambda k: Fraction((-1) ** k, factorial(2 * k + 1))),
        "cosc": _series(a2, lambda k: Fraction((-1) ** k, factorial(2 * k + 2))),
        "g2": _series(a2, lambda k: Fraction((-1) ** k, factorial(2 * k + 3))),
        "cosc slope": _series(a2, lambda k: (-1) ** (k + 1) * Fraction(k + 1, factorial(2 * k + 4))),
        "g2 slope": _series(a2, lambda k: (-1) ** (k + 1) * Fraction(k + 1, factorial(2 * k + 5))),
        "dexpinv g2": _series(z2, lambda k: (-1) ** k * _B[2 * k + 2] / factorial(2 * k + 2)),
        "dexpinv g2t": _series(
            z2, lambda k: (-1) ** (k + 1) * _B[2 * k + 4] * (2 * k + 2) / factorial(2 * k + 4)),
    }


@pytest.mark.parametrize("a", [0.001, 0.01, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.49])
def test_scalar_coefficients_match_exact_taylor_sums(a):
    # the Taylor polynomials hold to rounding below a = 0.5, where the
    # closed forms lose up to 4e-9 (dexpinv g2t at 0.06) to cancellation,
    # so the switch to them must not come earlier
    exact = _exact_coefficients(a)
    got = zip(
        ["sinc", "cosc", "sinc", "cosc", "g2", "cosc slope", "g2 slope", "dexpinv g2",
         "dexpinv g2t"],
        [*_exp_coeffs(a * a), *_exp_dexp_coeffs(a * a), *_dexp_slopes(a * a),
         _dexpinv_g2(a), _dexpinv_g2t(a)],
    )
    for name, value in got:
        want = float(exact[name])
        assert abs(value - want) <= 1e-14 * abs(want), name


@pytest.mark.parametrize("a2", [
    0.0, 1e-300, 1e-8, 0.01, np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0), 1.0, 4.0,
    20.0, np.nextafter(_TWO_PI_SQ, 0.0), _TWO_PI_SQ,
])
def test_exp_dexp_coeffs_share_the_exp_coefficients_bit_for_bit(a2):
    # R = exp(u) in the closed-form G and in the exact J is built from the
    # shared kernel, and must be the explicit steps' exp_so3 bit for bit
    assert np.array(_exp_dexp_coeffs(a2)[:2]).tobytes() == np.array(_exp_coeffs(a2)).tobytes()


@pytest.mark.parametrize("angle", [0.2, 0.49, 0.51, 2.0, 5.0])
def test_dexp_star_jacobian_matches_central_differences(angle):
    for _ in range(20):
        u = rng.normal(size=3)
        u *= angle / np.linalg.norm(u)
        m = rng.normal(size=3)
        eps = 1e-6
        columns = [(np.array(_dexp_star(*(u + e), *m)) - np.array(_dexp_star(*(u - e), *m)))
                   / (2.0 * eps) for e in eps * np.eye(3)]
        expected = np.array(columns).T
        x, y, z = u.tolist()
        a2 = x * x + y * y + z * z
        P = np.array(_dexp_star_jacobian(*u, *m, a2, *_exp_dexp_coeffs(a2)[1:])).reshape(3, 3)
        np.testing.assert_allclose(P, expected, rtol=0, atol=1e-7 * np.abs(expected).max())
