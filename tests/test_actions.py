"""Shared axioms for every registered action, stated on exp and act
alone: exp(0) acts trivially, act(exp(t xi), .) is a flow in t, exp(-xi)
undoes exp(xi), the reference generator is d/dt act(exp(t xi), m) at 0,
and the exact dexpinv agrees with the bracket series."""

from __future__ import annotations

import numpy as np
import pytest

from geomint.actions import (
    HomogeneousAction,
    body_top_action,
    coadjoint_se3_action,
    cotangent_so3_action,
    ext_top_action,
    quadrotor_action,
    se3_ts2_action,
    so3_left_action,
    so3_right_action,
    translation_action,
    ts2_action,
)
from _reference import coadjoint_so3_action, dexpinv_series, generator, generator_ts2
from geomint.lie import BranchError, dexpinv_so3, exp_so3

rng = np.random.default_rng(2024)


def _ts2_point():
    q = rng.normal(size=3)
    q /= np.linalg.norm(q)
    w = rng.normal(size=3)
    w -= (w @ q) * q
    return np.concatenate([q, w])


def _rotation_point(extra: int) -> np.ndarray:
    Q = exp_so3(rng.normal(size=3))
    return np.concatenate([Q.ravel(), rng.normal(size=extra)])


def _quadrotor_point():
    from geomint.systems.quadrotor import default_initial

    return default_initial()


CASES = [
    (translation_action(4), lambda: rng.normal(size=4)),
    (ts2_action(1), _ts2_point),
    (ts2_action(2), lambda: np.concatenate([_ts2_point(), _ts2_point()])),
    (coadjoint_so3_action(), lambda: rng.normal(size=3)),
    (coadjoint_se3_action(), lambda: rng.normal(size=6)),
    (cotangent_so3_action(), lambda: _rotation_point(3)),
    (body_top_action(), lambda: _rotation_point(3)),
    (ext_top_action(), lambda: _rotation_point(9)),
    (quadrotor_action(), _quadrotor_point),
    # the one-block factors the system actions are built from
    (so3_left_action(), lambda: _rotation_point(0)),
    (so3_right_action(), lambda: _rotation_point(0)),
    (se3_ts2_action(), _ts2_point),
]

IDS = [action.name for action, _ in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def _random_algebra(action: HomogeneousAction, scale=0.5):
    return scale * rng.normal(size=action.algebra_dim)


def test_identity_acts_trivially(case):
    action, point = case
    m = point()
    e = action.exp(np.zeros(action.algebra_dim))
    np.testing.assert_allclose(action.act(e, m), m, rtol=0, atol=1e-14)


def test_action_compatible_with_composition(case):
    # the flow law of a one-parameter subgroup, at two different times:
    # exp(s xi) . exp(t xi) . m = exp((s + t) xi) . m
    action, point = case
    m = point()
    xi = _random_algebra(action)
    s, t = 0.3, 0.7
    lhs = action.act(action.exp(s * xi), action.act(action.exp(t * xi), m))
    rhs = action.act(action.exp((s + t) * xi), m)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)


def test_inverse_undoes_action(case):
    action, point = case
    m = point()
    xi = _random_algebra(action)
    np.testing.assert_allclose(
        action.act(action.exp(-xi), action.act(action.exp(xi), m)), m, rtol=0, atol=1e-11
    )


def test_generator_matches_finite_difference(case):
    action, point = case
    m = point()
    xi = _random_algebra(action, scale=1.0)
    t = 1e-6
    fd = (action.act(action.exp(t * xi), m) - action.act(action.exp(-t * xi), m)) / (
        2.0 * t
    )
    np.testing.assert_allclose(fd, generator(action)(xi, m), rtol=0, atol=5e-8)


def test_generator_finite_difference_is_second_order(case):
    action, point = case
    m = point()
    xi = _random_algebra(action, scale=1.0)
    gen = generator(action)(xi, m)

    def err(t):
        fd = (
            action.act(action.exp(t * xi), m) - action.act(action.exp(-t * xi), m)
        ) / (2.0 * t)
        return np.linalg.norm(fd - gen)

    e1, e2 = err(1e-3), err(5e-4)
    if e1 < 1e-12:
        pytest.skip("generator exact for this action")
    assert 3.0 < e1 / e2 < 5.0


def test_act_accepts_a_point_given_as_a_list(case):
    action, point = case
    m = point()
    g = action.exp(_random_algebra(action))
    np.testing.assert_array_equal(action.act(g, m.tolist()), action.act(g, m))


def test_dexpinv_matches_bracket_series(case):
    action, point = case
    u = _random_algebra(action, scale=0.05)
    v = rng.normal(size=action.algebra_dim)
    got = action.dexpinv(u, v)
    ref = dexpinv_series(u, v, 8, bracket=action.bracket)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_exp_act_preserves_manifold(case):
    # act checks every TS^2 block it moves, so one more act at exp(0)
    # raises if the 20 random acts left the manifold
    action, point = case
    m = point()
    for _ in range(20):
        m = action.act(action.exp(_random_algebra(action)), m)
    action.act(action.exp(np.zeros(action.algebra_dim)), m)  # must not raise


# -- products ----------------------------------------------------------------


def test_product_rejects_wrong_factor_count():
    action = quadrotor_action()
    g = action.exp(_random_algebra(action))
    assert len(g) == 7
    with pytest.raises(ValueError):
        action.act(g[:6], _quadrotor_point())


def _reference_product(factors):
    """exp, act and dexpinv of a direct product, factor by factor with
    np.concatenate: the definition the fused product maps must match."""
    alg = np.cumsum([0] + [f.algebra_dim for f in factors])
    pts = np.cumsum([0] + [f.point_dim for f in factors])
    blocks = list(zip(factors, zip(alg, alg[1:]), zip(pts, pts[1:])))

    def exp(xi):
        return [f.exp(xi[a:b]) for f, (a, b), _ in blocks]

    def act(g, m):
        return np.concatenate([f.act(gi, m[c:d]) for (f, _, (c, d)), gi in zip(blocks, g)])

    def dexpinv(u, v):
        return np.concatenate([f.dexpinv(u[a:b], v[a:b]) for f, (a, b), _ in blocks])

    return exp, act, dexpinv


def _quadrotor_factors():
    rot, r3, ts2 = so3_left_action(), translation_action(3), se3_ts2_action()
    return [translation_action(6), rot, r3, rot, r3, ts2, ts2]


@pytest.mark.parametrize(
    "action, factors, point",
    [
        (ts2_action(6), [se3_ts2_action()] * 6,
         lambda: np.concatenate([_ts2_point() for _ in range(6)])),
        (quadrotor_action(), _quadrotor_factors(), _quadrotor_point),
        (body_top_action(), [so3_right_action(), translation_action(3)],
         lambda: _rotation_point(3)),
        (ext_top_action(), [cotangent_so3_action(), translation_action(6)],
         lambda: _rotation_point(9)),
    ],
    ids=["ts2-6", "quadrotor", "body-top", "ext-top"],
)
def test_product_maps_equal_factor_by_factor_definition(action, factors, point):
    exp, act, dexpinv = _reference_product(factors)
    for _ in range(5):
        m = point()
        xi = _random_algebra(action)
        v = rng.normal(size=action.algebra_dim)
        np.testing.assert_array_equal(action.act(action.exp(xi), m), act(exp(xi), m))
        np.testing.assert_array_equal(action.dexpinv(xi, v), dexpinv(xi, v))


@pytest.mark.parametrize("action, point", CASES, ids=IDS)
def test_maps_reject_arguments_of_the_wrong_length(action, point):
    m = point()
    xi = _random_algebra(action)
    g = action.exp(xi)
    for bad in (np.append(m, 0.0), m[:-1]):
        with pytest.raises(ValueError):
            action.act(g, bad)
    for bad in (np.append(xi, 0.0), xi[:-1]):
        with pytest.raises(ValueError):
            action.exp(bad)
        with pytest.raises(ValueError):
            action.dexpinv(bad, bad)


def test_short_translation_block_is_rejected():
    # the translation factor zips its block against the group element,
    # so only the length check stops a short point
    action = body_top_action()
    g = action.exp(_random_algebra(action))
    with pytest.raises(ValueError):
        action.act(g, _rotation_point(2))


# -- TS^2 specifics ----------------------------------------------------------


_TS2_IDENTITY = [*np.eye(3).ravel(), 0.0, 0.0, 0.0]


def test_ts2_rejects_off_manifold_points():
    act = se3_ts2_action().act
    with pytest.raises(ValueError):
        act(_TS2_IDENTITY, np.array([2.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        act(_TS2_IDENTITY, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("off, on_manifold", [(1e-8, False), (1e-10, True)])
def test_ts2_check_holds_points_to_1e_9(off, on_manifold):
    # ||q| - 1| = off, then q.w = off with |w| = 1
    act = se3_ts2_action().act
    for m in ([1.0 + off, 0.0, 0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, off, 1.0, 0.0]):
        if on_manifold:
            act(_TS2_IDENTITY, np.array(m))
        else:
            with pytest.raises(ValueError):
                act(_TS2_IDENTITY, np.array(m))


def test_ts2_rejects_nan_points():
    nan = np.full(6, np.nan)
    with pytest.raises(ValueError):
        se3_ts2_action().act(_TS2_IDENTITY, nan)
    action = ts2_action(2)
    g = action.exp(np.zeros(12))
    with pytest.raises(ValueError):
        action.act(g, np.concatenate([_ts2_point(), nan]))
    # q on the sphere, omega NaN: only the tangency check can catch it
    with pytest.raises(ValueError):
        action.act(g, np.concatenate([[1.0, 0.0, 0.0, np.nan, 0.0, 0.0], _ts2_point()]))


def test_ts2_action_is_transitive_pair():
    # rotating by 90 deg about e3 and shifting omega via the translation slot
    g = [*exp_so3([0.0, 0.0, np.pi / 2]).ravel(), 0.0, 0.0, 1.0]
    m = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    out = se3_ts2_action().act(g, m)
    np.testing.assert_allclose(out[:3], [0.0, 1.0, 0.0], atol=1e-15)
    # A w + a x (Aq) = e3 + e3 x e2 = (-1, 0, 1)
    np.testing.assert_allclose(out[3:], [-1.0, 0.0, 1.0], atol=1e-15)


def test_generator_ts2_stays_tangent():
    m = _ts2_point()
    xi = rng.normal(size=6)
    dm = generator_ts2(xi, m)
    q, w = m[:3], m[3:]
    dq, dw = dm[:3], dm[3:]
    # d/dt |q|^2 = 0 and d/dt (q.w) = 0 along the generator
    assert abs(q @ dq) < 1e-12
    assert abs(dq @ w + q @ dw) < 1e-12


# -- SO(3) factors -------------------------------------------------------------


def test_so3_factors_match_the_array_kernel():
    # the factors multiply on floats; numpy's matmul may round the last
    # bit differently
    left, right = so3_left_action(), so3_right_action()
    for _ in range(50):
        xi = rng.normal(size=3)
        Q = exp_so3(rng.normal(size=3))
        A = exp_so3(xi)
        np.testing.assert_array_equal(left.exp(xi), A.ravel())
        np.testing.assert_array_equal(right.exp(xi), A.ravel())
        np.testing.assert_allclose(left.act(left.exp(xi), Q.ravel()), (A @ Q).ravel(),
                                   rtol=0, atol=2e-15)
        np.testing.assert_allclose(right.act(right.exp(xi), Q.ravel()), (Q @ A).ravel(),
                                   rtol=0, atol=2e-15)


# -- SO(3) from the right ----------------------------------------------------


def test_right_action_dexpinv_keeps_branch_check():
    # the opposite group's dexpinv is the so(3) one at -u, so it leaves
    # the principal branch where dexpinv_so3 does
    action = so3_right_action()
    with pytest.raises(BranchError):
        action.dexpinv(np.array([7.0, 0.0, 0.0]), np.ones(3))
    with pytest.raises(BranchError):
        body_top_action().dexpinv(np.array([7.0, 0, 0, 0, 0, 0]), np.ones(6))
    u, v = rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_array_equal(action.dexpinv(u, v), dexpinv_so3(-u, v))
