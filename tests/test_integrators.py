from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from geomint.actions import translation_action
from geomint.integrators import (
    CF4,
    CF32A,
    CF32B,
    CF43,
    DOPRI54,
    HEUN,
    KUTTA3,
    LIE_EULER,
    METHODS,
    RK4,
    AdaptiveResult,
    CFScheme,
    ControllerConfig,
    CotangentGroup,
    NonConvergenceError,
    SolveConfig,
    StepSizeUnderflowError,
    Tableau,
    TooManyRejectsError,
    _H_MIN,
    _symplectic_residual_map,
    adaptive_integrate,
    controller_update,
    fixed_integrate,
    rkmk4_two_commutator_step,
    so3_cotangent_group,
    so3rn_cotangent_group,
    symplectic_step,
)
from _reference import aux_stepper, coadjoint_so3_action, dexpinv_series
from geomint.kernels import SingularMatrixError
from geomint.lie import BranchError, dexp_star_so3, exp_so3
from geomint.systems import get_system

rng = np.random.default_rng(99)
RKMK54 = METHODS["rkmk54"].stepper


# -- tableaux ----------------------------------------------------------------


def test_tableau_rejects_non_explicit():
    with pytest.raises(ValueError):
        Tableau(name="bad", a=((0.0, 0.5), (1.0, 0.0)), b=(0.5, 0.5))


def test_tableau_rejects_bad_weights():
    with pytest.raises(ValueError):
        Tableau(name="bad", a=((0.0,),), b=(0.7,))


def test_dopri54_is_fsal():
    # last stage row equals the fifth-order weights (seventh weight is 0)
    np.testing.assert_allclose(DOPRI54.a[-1], DOPRI54.b[:6], atol=0)
    assert DOPRI54.b[6] == 0.0


def test_stage_counts():
    assert RK4.stages == 4
    assert KUTTA3.stages == 3
    assert DOPRI54.stages == 7
    assert DOPRI54.b_hat is not None and METHODS["rkmk54"].p_hat == 4


# -- commutator-free scheme tables ----------------------------------------------


def test_cf_scheme_rejects_a_forward_base():
    with pytest.raises(ValueError, match="not an earlier point"):
        CFScheme("bad", ((0, (0.5,)), (3, (0.0, 1.0)), (0, (1.0,))), stages=(0, 1))


def test_cf_scheme_rejects_an_implicit_row():
    # point 1 would need the field at point 1 itself
    with pytest.raises(ValueError, match="fields of earlier stages"):
        CFScheme("bad", ((0, (0.5, 0.5)),), stages=(0, 1))


@pytest.mark.parametrize(
    "points,aux",
    [(((0, (0.5,)), (1, (0.4,))), ()), (((0, (1.0,)),), ((0, (0.5,)), (2, (0.4,))))],
    ids=["main", "aux"],
)
def test_cf_scheme_rejects_weights_not_summing_to_one(points, aux):
    with pytest.raises(ValueError, match="do not sum to 1"):
        CFScheme("bad", points, stages=(0,), aux=aux)


# -- classical reduction on the translation group -----------------------------

_A = np.array([[0.0, 1.0], [-4.0, -0.1]])


def _linear_field(y):
    return _A @ y


def _classical_rk_step(tableau, y, h):
    k = []
    for i in range(tableau.stages):
        yi = y + h * sum(tableau.a[i][j] * k[j] for j in range(i)) if i else y.copy()
        k.append(_linear_field(yi))
    y1 = y + h * sum(b * ki for b, ki in zip(tableau.b, k))
    if tableau.b_hat is None:
        return y1, None
    return y1, y + h * sum(b * ki for b, ki in zip(tableau.b_hat, k))


ACTION2 = translation_action(2)
Y0 = np.array([1.0, -0.3])


@pytest.mark.parametrize("tableau", [RK4, KUTTA3, DOPRI54], ids=lambda t: t.name)
def test_rkmk_collapses_to_classical(tableau):
    h = 0.05
    ref, ref_aux = _classical_rk_step(tableau, Y0, h)
    y1, estimate = tableau(ACTION2, _linear_field, Y0, h)
    np.testing.assert_allclose(y1, ref, atol=1e-13)
    if ref_aux is not None:
        y_hat = aux_stepper(tableau)(ACTION2, _linear_field, Y0, h)[0]
        np.testing.assert_allclose(y_hat, ref_aux, atol=1e-13)
        assert abs(estimate() - np.linalg.norm(ref - ref_aux)) < 1e-15


def test_every_method_but_rkmk4_2c_is_its_table():
    tables = {"lie-euler": LIE_EULER, "heun": HEUN, "rkmk3": KUTTA3, "rkmk4": RK4, "cf4": CF4,
              "cf32a": CF32A, "cf32b": CF32B, "cf43": CF43, "rkmk54": DOPRI54}
    assert set(METHODS) - set(tables) == {"rkmk4-2c"}
    for name, table in tables.items():
        assert METHODS[name].stepper is table, name


def test_commutator_free_schemes_collapse_to_classical_rk4():
    # with a trivial bracket the stage exponentials compose additively
    h = 0.05
    ref, _ = _classical_rk_step(RK4, Y0, h)
    np.testing.assert_allclose(
        METHODS["cf4"].stepper(ACTION2, _linear_field, Y0, h)[0], ref, atol=1e-13
    )
    np.testing.assert_allclose(
        rkmk4_two_commutator_step(ACTION2, _linear_field, Y0, h)[0], ref, atol=1e-13
    )


# the classical tableaux the embedded pairs collapse to: each pair's
# stages, its main weights b and its auxiliary weights b_hat; cf43's
# auxiliary update is Ralston's third-order method on its own stages
_CF32A_RK = Tableau(name="cf32a", a=((), (1 / 3,), (0.0, 2 / 3)),
                    b=(0.25, 0.0, 0.75), b_hat=(0.0, 0.5, 0.5))
_CF32B_RK = Tableau(name="cf32b", a=((), (2 / 3,), (5 / 12, 0.25)),
                    b=(0.25, -0.25, 1.0), b_hat=(0.25, 0.0, 0.75))
_RALSTON3 = Tableau(name="ralston3", a=((), (0.5,), (0.0, 0.75)),
                    b=(2 / 9, 1 / 3, 4 / 9))


@pytest.mark.parametrize(
    "method,main,aux",
    [("cf32a", _CF32A_RK, None), ("cf32b", _CF32B_RK, None), ("cf43", RK4, _RALSTON3)],
)
def test_commutator_free_pairs_collapse_to_classical_rk(method, main, aux):
    h = 0.05
    ref, ref_aux = _classical_rk_step(main, Y0, h)
    if aux is not None:
        ref_aux, _ = _classical_rk_step(aux, Y0, h)
    stepper = METHODS[method].stepper
    np.testing.assert_allclose(stepper(ACTION2, _linear_field, Y0, h)[0], ref, atol=1e-13)
    y_hat = aux_stepper(stepper)(ACTION2, _linear_field, Y0, h)[0]
    np.testing.assert_allclose(y_hat, ref_aux, atol=1e-13)


def test_lie_euler_collapses_to_euler_and_heun():
    h = 0.05
    np.testing.assert_allclose(
        LIE_EULER(ACTION2, _linear_field, Y0, h)[0],
        Y0 + h * _linear_field(Y0),
        atol=1e-15,
    )
    f1 = _linear_field(Y0)
    f2 = _linear_field(Y0 + h * f1)
    np.testing.assert_allclose(
        METHODS["heun"].stepper(ACTION2, _linear_field, Y0, h)[0],
        Y0 + 0.5 * h * (f1 + f2),
        atol=1e-15,
    )


# -- constant fields are integrated exactly -----------------------------------


@pytest.mark.parametrize("method", sorted(METHODS))
def test_constant_field_exact(method):
    action = coadjoint_so3_action()
    c = np.array([0.4, -0.2, 0.7])
    y0 = np.array([1.0, 2.0, -1.0])
    ts, ys = fixed_integrate(action, lambda m: c, METHODS[method].stepper, y0, 0.0, 1.0, 16)
    exact = action.act(exp_so3(c), y0)
    assert np.linalg.norm(ys[-1] - exact) <= 1e-13


# -- dexpinv in the RKMK stages ------------------------------------------------


def test_series_dexpinv_matches_exact_for_small_steps():
    action = coadjoint_so3_action()
    series_action = replace(
        action, dexpinv=lambda u, v: dexpinv_series(u, v, 8, bracket=action.bracket)
    )
    iinv = np.array([1.0, 0.5, 2.0])

    def euler_field(mu):
        return iinv * mu  # body angular velocity feeding the generator

    h = 1e-3
    y0 = np.array([0.3, -1.1, 0.8])
    exact = RK4(action, euler_field, y0, h)[0]
    series = METHODS["rkmk4"].stepper(series_action, euler_field, y0, h)[0]
    np.testing.assert_allclose(series, exact, atol=1e-12)


@pytest.mark.parametrize("method,calls", [("rkmk3", 2), ("rkmk4", 3), ("rkmk54", 6)])
def test_rkmk_skips_dexpinv_at_the_first_stage(method, calls):
    # stage 1 sits at sigma = 0, where dexpinv is the identity; the
    # estimate is called so that rkmk54 also runs its seventh stage
    action = coadjoint_so3_action()
    seen = []

    def dexpinv(u, v):
        seen.append(u)
        return action.dexpinv(u, v)

    f = lambda mu: np.array([1.0, 0.5, 2.0]) * mu
    y0 = np.array([0.3, -1.1, 0.8])
    _, estimate = METHODS[method].stepper(replace(action, dexpinv=dexpinv), f, y0, 0.1)
    if estimate is not None:
        estimate()
    assert len(seen) == calls
    assert all(np.any(u != 0.0) for u in seen)


def _counted(action, f):
    """The action and field with exp, dexpinv and field calls counted."""
    counts = {"f": 0, "exp": 0, "dexpinv": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    counted = replace(action, exp=counting("exp", action.exp),
                      dexpinv=counting("dexpinv", action.dexpinv))
    return counted, counting("f", f), counts


# (field evaluations, exps, dexpinvs) per step without and with the estimate
@pytest.mark.parametrize(
    "method,main,with_estimate",
    [("rkmk54", (6, 6, 5), (7, 6, 6)), ("cf43", (4, 5, 0), (5, 8, 0)),
     ("cf32a", (3, 3, 0), (3, 4, 0)), ("cf32b", (3, 3, 0), (3, 4, 0))],
)
def test_fixed_step_runs_skip_the_embedded_part(method, main, with_estimate):
    stepper = METHODS[method].stepper
    f = lambda mu: np.array([1.0, 0.5, 2.0]) * mu
    y0 = np.array([0.3, -1.1, 0.8])
    action, field, counts = _counted(coadjoint_so3_action(), f)
    fixed_integrate(action, field, stepper, y0, 0.0, 0.4, 4)
    assert tuple(v / 4 for v in counts.values()) == main

    counts.update(f=0, exp=0, dexpinv=0)
    y1, estimate = stepper(action, field, y0, 0.1)
    assert estimate() > 0.0
    assert tuple(counts.values()) == with_estimate

    plain = stepper(coadjoint_so3_action(), f, y0, 0.1)[0]
    np.testing.assert_array_equal(plain, y1)


@pytest.mark.parametrize("method", [m for m, info in METHODS.items() if info.p_hat is not None])
def test_an_estimate_called_twice_gives_the_same_float(method):
    # the second call returns the stored float with no field evaluation,
    # exp or dexpinv
    f = lambda mu: np.array([1.0, 0.5, 2.0]) * mu
    action, field, counts = _counted(coadjoint_so3_action(), f)
    y1, estimate = METHODS[method].stepper(action, field, np.array([0.3, -1.1, 0.8]), 0.1)
    kept = y1.copy()
    first = estimate()
    assert type(first) is float and first > 0.0
    counts.update(f=0, exp=0, dexpinv=0)
    assert estimate() == first
    assert counts == {"f": 0, "exp": 0, "dexpinv": 0}
    np.testing.assert_array_equal(y1, kept)


# (field evaluations, exps) per step of the schemes without an estimate;
# cf4's fourth stage reuses the second stage's exponential
@pytest.mark.parametrize("method,calls", [("lie-euler", (1, 1)), ("heun", (2, 2)),
                                          ("cf4", (4, 5))])
def test_commutator_free_evaluation_counts(method, calls):
    f = lambda mu: np.array([1.0, 0.5, 2.0]) * mu
    action, field, counts = _counted(coadjoint_so3_action(), f)
    fixed_integrate(action, field, METHODS[method].stepper, np.array([0.3, -1.1, 0.8]),
                    0.0, 0.4, 4)
    assert (counts["f"] / 4, counts["exp"] / 4) == calls
    assert counts["dexpinv"] == 0


def test_adaptive_rejects_branch_error_in_the_embedded_part():
    # DOPRI54's seventh stage sits at the final sigma and runs only when
    # the estimate is called; a BranchError there rejects the trial step
    action = coadjoint_so3_action()
    calls = []

    def dexpinv(u, v):
        calls.append(u)
        if len(calls) == 6:  # the first trial step's seventh stage
            raise BranchError("outside the principal branch")
        return action.dexpinv(u, v)

    f = lambda mu: np.array([1.0, 0.5, 2.0]) * mu
    cfg = ControllerConfig(tol=1e-6, alpha=0.2)
    res = adaptive_integrate(replace(action, dexpinv=dexpinv), f, RKMK54,
                             np.array([0.3, -1.1, 0.8]), 0.0, 0.5, 0.1, cfg)
    first, second = res.step_log[:2]
    assert first.error_estimate == np.inf and not first.accepted
    assert second.h == 0.05
    assert sum(not a.accepted for a in res.step_log) >= 1
    assert res.ts[-1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tol,h0", [(1e-3, 0.1), (1e-9, 0.5)])
def test_adaptive_rkmk54_evaluates_the_shared_stage_once(tol, h0):
    # DOPRI54's seventh stage is f(y1), the next trial's first stage, and
    # a trial after a reject reuses f(y) from the rejected one: every
    # trial but the first costs 6 evaluations
    f = lambda mu: np.array([1.0, 0.5, 2.0]) * mu
    action, field, counts = _counted(coadjoint_so3_action(), f)
    y0 = np.array([0.3, -1.1, 0.8])
    res = adaptive_integrate(action, field, RKMK54, y0, 0.0, 2.0, h0,
                             ControllerConfig(tol=tol, alpha=0.2))
    log = res.step_log
    assert counts["f"] == 7 + 6 * (len(log) - 1)
    assert sum(not a.accepted for a in log) == (h0 == 0.5)  # the second case covers a reject
    # the memo changes no number: replay the accepted steps without it
    y, ys = y0, [y0]
    for attempt in log:
        if attempt.accepted:
            y = RKMK54(coadjoint_so3_action(), f, y, attempt.h)[0]
            ys.append(y)
    np.testing.assert_array_equal(res.ys, np.array(ys))


def test_rkmk54_error_estimate_scales_at_order_five():
    action = coadjoint_so3_action()
    iinv = np.array([1.0, 0.5, 2.0])
    f = lambda mu: iinv * mu
    y0 = np.array([0.3, -1.1, 0.8])
    e1 = RKMK54(action, f, y0, 0.1)[1]()
    e2 = RKMK54(action, f, y0, 0.05)[1]()
    assert 20.0 < e1 / e2 < 50.0


# -- controller ---------------------------------------------------------------


def test_controller_at_tolerance_applies_safety_factor():
    cfg = ControllerConfig(tol=1e-6, alpha=0.25)
    assert controller_update(0.1, 1e-6, cfg) == pytest.approx(0.09)


def test_controller_growth_for_small_error():
    # (tol/e)^(1/4) = 2 when e = tol/16, so h doubles before the safety factor
    cfg = ControllerConfig(tol=1e-6, alpha=0.25)
    assert controller_update(0.1, 1e-6 / 16.0, cfg) == pytest.approx(0.18)


def test_controller_shrinks_on_rejection():
    cfg = ControllerConfig(tol=1e-6, alpha=0.25)
    assert controller_update(0.1, 16e-6, cfg) == pytest.approx(0.045)


def test_controller_zero_error_gives_inf():
    # the next trial is then truncated to the rest of the interval
    cfg = ControllerConfig(tol=1e-6, alpha=0.25)
    assert controller_update(0.1, 0.0, cfg) == np.inf


def test_controller_halves_h_on_a_non_finite_estimate():
    cfg = ControllerConfig(tol=1e-6, alpha=0.25)
    assert controller_update(0.1, np.nan, cfg) == 0.05
    assert controller_update(0.1, np.inf, cfg) == 0.05


def test_controller_clamps():
    cfg = ControllerConfig(tol=1e-6, alpha=0.25)
    assert controller_update(1e-11, 1e6, cfg) == _H_MIN
    with pytest.raises(ValueError):
        controller_update(0.1, -1.0, cfg)


def test_controller_exponent_reads_the_lower_order_of_the_pair():
    assert [METHODS[m].alpha for m in ("rkmk54", "cf43", "cf32a", "cf32b")] == [
        1 / 5, 1 / 4, 1 / 3, 1 / 3]
    assert METHODS["rkmk4"].alpha is None


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(tol=-1.0, alpha=0.25)
    with pytest.raises(ValueError):
        ControllerConfig(tol=1e-6, alpha=0.25, theta=1.5)


@pytest.mark.parametrize("tol, alpha, h0", [
    (np.nan, 0.2, 0.1), (np.inf, 0.2, 0.1),
    (1e-6, np.nan, 0.1), (1e-6, -1.0, 0.1), (1e-6, 0.0, 0.1), (1e-6, np.inf, 0.1),
    (1e-6, 0.2, -0.01), (1e-6, 0.2, 0.0), (1e-6, 0.2, np.nan),
])
def test_adaptive_settings_are_checked_at_the_call(tol, alpha, h0):
    # the interval is short so that, unchecked, each setting ends at once
    # (in rejections, an underflow or at T) instead of stepping at the floor
    with pytest.raises(ValueError, match="must be positive"):
        adaptive_integrate(ACTION2, _linear_field, RKMK54, Y0, 0.0, 0.01, h0,
                           ControllerConfig(tol=tol, alpha=alpha))


# -- drivers ------------------------------------------------------------------


def test_fixed_integrate_shapes_and_endpoint():
    ts, ys = fixed_integrate(ACTION2, _linear_field, LIE_EULER, Y0, 0.0, 2.0, 10)
    assert ts.shape == (11,) and ys.shape == (11, 2)
    assert ts[0] == 0.0 and ts[-1] == 2.0
    with pytest.raises(ValueError):
        fixed_integrate(ACTION2, _linear_field, LIE_EULER, Y0, 0.0, 1.0, 0)


def test_fixed_integrate_last_time_is_T_bit_for_bit():
    # t0 + n h rounds past T here, so the last time must be set to T itself
    t0, T, n = 0.1, 0.7, 37
    assert t0 + n * ((T - t0) / n) != T
    ts, _ = fixed_integrate(translation_action(1), lambda y: np.ones(1),
                            METHODS["rkmk4"].stepper, np.array([0.0]), t0, T, n)
    assert ts[-1] == T


def test_adaptive_accepts_below_tolerance_and_lands_on_T():
    cfg = ControllerConfig(tol=1e-8, alpha=0.2)
    res = adaptive_integrate(
        ACTION2, _linear_field, RKMK54, Y0, 0.0, 3.0, 0.1, cfg
    )
    assert isinstance(res, AdaptiveResult)
    assert res.ts[0] == 0.0 and res.ts[-1] == 3.0
    assert np.all(np.diff(res.ts) > 0)
    accepted = [a for a in res.step_log if a.accepted]
    assert len(accepted) == len(res.ts) - 1
    assert all(a.error_estimate < cfg.tol for a in accepted)
    # matches the exact flow of the linear system
    from scipy.linalg import expm

    np.testing.assert_allclose(res.ys[-1], expm(3.0 * _A) @ Y0, atol=1e-6)


def test_adaptive_requires_embedded_stepper():
    cfg = ControllerConfig(tol=1e-8, alpha=0.2)
    with pytest.raises(ValueError, match="embedded"):
        adaptive_integrate(ACTION2, _linear_field, LIE_EULER, Y0, 0.0, 1.0, 0.1, cfg)


def test_adaptive_rejects_non_finite_estimate_and_halves_h():
    # a trial step longer than 0.05 reports a NaN estimate
    def stepper(action, f, y, h):
        y1, estimate = RKMK54(action, f, y, h)
        return y1, (lambda: np.nan) if h > 0.05 else estimate

    cfg = ControllerConfig(tol=1e-8, alpha=0.2)
    res = adaptive_integrate(ACTION2, _linear_field, stepper, Y0, 0.0, 1.0, 0.08, cfg)
    first, second = res.step_log[:2]
    assert np.isnan(first.error_estimate) and not first.accepted
    assert second.h == 0.04
    assert res.ts[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(a.h <= 0.05 for a in res.step_log if a.accepted)


@pytest.mark.parametrize("method,accepted", [("rkmk54", 68), ("cf43", 224)])
def test_adaptive_rejects_a_singular_field_and_halves_h(method, accepted):
    # the pendulum and quadrotor fields raise SingularMatrixError at a
    # non-finite stage; here the field raises once a stage leaves |y| <= 10
    def f(y):
        if abs(y[0]) > 10.0:
            raise SingularMatrixError("stage left the field's domain")
        return -y

    cfg = ControllerConfig(tol=1e-8, alpha=0.2)
    res = adaptive_integrate(translation_action(1), f, METHODS[method].stepper,
                             np.array([1.0]), 0.0, 50.0, 50.0, cfg)
    first = res.step_log[0]
    assert (first.h, first.error_estimate, first.accepted) == (50.0, np.inf, False)
    assert res.step_log[1].h == 25.0
    assert len(res.ts) - 1 == accepted
    assert sum(not a.accepted for a in res.step_log) == 8
    assert res.ts[-1] == pytest.approx(50.0, abs=1e-12)


def _constant_estimate(e, trials):
    """A stepper that stays put, logs each trial h and reports estimate e."""
    def stepper(action, f, y, h):
        trials.append(h)
        return y, lambda: e
    return stepper


def test_adaptive_step_underflow():
    # a NaN estimate halves h: 1e-11 -> 1.25e-12 in four trials, and the
    # fifth would fall below the 1e-12 floor
    trials = []
    cfg = ControllerConfig(tol=1e-8, alpha=0.2)
    with pytest.raises(StepSizeUnderflowError):
        adaptive_integrate(translation_action(1), lambda y: y, _constant_estimate(np.nan, trials),
                           np.array([1.0]), 0.0, 1.0, 1e-11, cfg)
    assert trials == [1e-11 / 2**k for k in range(4)]


def test_adaptive_step_that_cannot_move_t_underflows():
    # the float spacing at t = 1e5 is 1.5e-11, so t + 1e-12 == t: such a
    # trial would move the state and leave t where it was
    calls = []

    def f(y):
        calls.append(y)
        return np.ones(1)

    cfg = ControllerConfig(tol=1e-6, alpha=0.2)
    with pytest.raises(StepSizeUnderflowError, match=r"^step size underflow at t = 100000$"):
        adaptive_integrate(translation_action(1), f, METHODS["rkmk54"].stepper,
                           np.array([0.0]), 1e5, 1e5 + 1e-3, 1e-12, cfg)
    assert calls == []


def test_adaptive_last_step_below_the_floor_lands_on_T():
    # the first step leaves T - t = 5e-13, under _H_MIN; the floor is on
    # the controller's h, not on a last step T cuts short, so that step runs
    cfg = ControllerConfig(tol=1e-6, alpha=0.2)
    res = adaptive_integrate(translation_action(1), lambda y: np.zeros(1),
                             METHODS["rkmk54"].stepper, np.array([1.0]), 0.0, 1.0,
                             1.0 - 5e-13, cfg)
    assert res.ts[-1] == 1.0
    assert all(attempt.accepted for attempt in res.step_log)
    np.testing.assert_array_equal(res.ys[-1], [1.0])


def test_adaptive_run_ends_on_T_from_5e_15_short():
    # the first step stops 5e-15 short of T; the trial that T cuts short
    # sets t to T, so the run does not end that far short of it
    cfg = ControllerConfig(tol=1e-6, alpha=0.2)
    res = adaptive_integrate(translation_action(1), lambda y: 0 * y,
                             METHODS["rkmk54"].stepper, np.array([1.0]), 0.0, 1.0,
                             1.0 - 5e-15, cfg)
    assert res.ts[-1] == 1.0


def test_adaptive_gives_up_after_thirty_consecutive_rejects():
    # a finite estimate above tol shrinks h down to the floor, where the
    # controller keeps it until the 31st trial in a row is rejected
    trials = []
    cfg = ControllerConfig(tol=1e-8, alpha=0.2)
    with pytest.raises(TooManyRejectsError, match="31 consecutive rejections"):
        adaptive_integrate(translation_action(1), lambda y: y, _constant_estimate(1.0, trials),
                           np.array([1.0]), 0.0, 1.0, 0.1, cfg)
    assert len(trials) == 31
    assert min(trials) == _H_MIN and trials[-1] == _H_MIN


# -- symplectic family ---------------------------------------------------------

_I_BODY = np.array([0.8, 1.1, 1.7])


def _free_rigid_body(g, mu):
    """Spatial-momentum form: omega = g I^-1 g^T mu, pi' = pi x omega = 0 force."""
    omega = g @ ((g.T @ mu) / _I_BODY)
    return omega, np.cross(mu, omega)


def _free_rigid_body_r3(g, mu):
    """The free body on (SO(3) x R^3) x dual, g as R row by row and then the
    R^3 part; the translational part is still."""
    omega, torque = _free_rigid_body(np.reshape(g[:9], (3, 3)), np.asarray(mu[:3]))
    return np.concatenate([omega, np.zeros(3)]), np.concatenate([torque, np.zeros(3)])


def test_symplectic_theta_validation():
    group = so3_cotangent_group()
    with pytest.raises(ValueError):
        symplectic_step(group, _free_rigid_body, np.eye(3), np.ones(3), 0.1, 1.5)


def test_solve_config_validation():
    for method in ("bisection", "fixed-point"):
        with pytest.raises(ValueError):
            SolveConfig(method=method)


# the abelian group R with its dual: exp, coad and dexp* are identities
_LINE = CotangentGroup(
    algebra_dim=1,
    exp=lambda xi: xi,
    compose=lambda g1, g2: g1 + g2,
    coad=lambda g, mu: mu,
    dexp_star=lambda u, mu: mu,
)


def test_symplectic_fixed_point_gives_up_after_100_iterations():
    # on an abelian group with f = (mu, mu) at theta = 0, each sweep maps
    # nbar to 0.9 (mu0 + nbar): it contracts by 0.9, so after 100 sweeps
    # the update is still about 1e-5, far above the stopping bound
    calls = []

    def field(g, mu):
        calls.append(None)
        return mu, mu

    with pytest.raises(NonConvergenceError, match="did not converge in 100 iterations"):
        symplectic_step(_LINE, field, np.zeros(1), np.ones(1), 0.9, 0.0)
    # the predictor G(0), the first G(x), then one evaluation per sweep
    assert len(calls) == 102


def test_symplectic_solve_rejects_a_stalled_update_with_a_large_residual():
    # on the line with f = (1e-9 g + 1, 1e-9 mu + 1), g0 = mu0 = 0, h = 1,
    # G(xi, nbar) = (1e-9 theta xi + 1, 1e-9 (1 - theta) nbar + 1).  A wrong
    # J = (1 + 1e4) I shrinks the first update to 7e-14, below the stopping
    # bound 2.4e-13, while the residual is still 7.1e-10: the solve must not
    # return that iterate
    theta = 0.5

    def field(g, mu):
        return 1e-9 * g + 1.0, 1e-9 * np.asarray(mu) + 1.0

    wrong = replace(_LINE, jacobian=lambda *args: -1e4 * np.eye(2))
    with pytest.raises(NonConvergenceError, match="above tolerance"):
        symplectic_step(wrong, field, np.zeros(1), np.zeros(1), 1.0, theta)
    exact = replace(_LINE, jacobian=lambda *args: np.diag([1e-9 * theta, 1e-9 * (1 - theta)]))
    g1, mu1 = symplectic_step(exact, field, np.zeros(1), np.zeros(1), 1.0, theta)
    np.testing.assert_allclose([g1[0], mu1[0]], [1.0, 1.0], rtol=1e-8)


@pytest.mark.parametrize("finite_calls,message", [(0, "predictor"), (1, "iterate")])
def test_symplectic_solve_stops_at_the_first_non_finite_value(finite_calls, message):
    # the field turns NaN after its first finite_calls calls: the predictor
    # G(0), or the G(x) of the first update.  Each is caught where it
    # appears, one field call later; unchecked, the NaN runs on to a later
    # check or to the iteration cap
    calls = []

    def field(g, mu):
        calls.append(None)
        value = np.full(1, 1.0 if len(calls) <= finite_calls else np.nan)
        return value, value

    with pytest.raises(NonConvergenceError, match=f"^implicit solve: {message} is not finite$"):
        symplectic_step(_LINE, field, np.zeros(1), np.ones(1), 0.1, 0.5)
    assert len(calls) == finite_calls + 1


def test_symplectic_solve_forms_no_jacobian_at_a_non_finite_image():
    # J is formed at G(x0); on the extended top with its exact Jacobian, a
    # field that turns NaN on its second call makes G(x0) NaN, which must be
    # refused as a non-finite iterate before the Jacobian sees it (there it
    # would surface as a singular J with condition number nan)
    system = get_system("heavytop-ext")
    ct = system.cotangent
    calls, points = [], []

    def field(g, mu):
        calls.append(None)
        f1, f2 = ct.f(g, mu)
        return (f1, f2) if len(calls) == 1 else ([np.nan] * len(f1), f2)

    def jacobian(*args):
        points.append(np.array(args[-1]))
        return ct.group.jacobian(*args)

    group = replace(ct.group, jacobian=jacobian)
    g, mu = ct.unpack(system.initial)
    with pytest.raises(NonConvergenceError, match="not finite"):
        symplectic_step(group, field, g, mu, 0.01, 0.5)
    assert len(calls) == 2
    assert all(np.isfinite(x).all() for x in points)


@pytest.mark.parametrize("theta, g1", [(1.0, 2.0), (0.5, 4.0 / 3.0)])
def test_symplectic_solve_refuses_a_predictor_whose_norm_overflows(theta, g1):
    # on the line with f = (c + g / 2, c + mu / 2), g0 = mu0 = 0 and h = 1,
    # c = 1 solves to g1.  At c = 1e200 the predictor (1e200, 1e200) is
    # finite but |x|^2 overflows, so the stopping bound _SOLVE_TOL (1 + |x|)
    # would be inf and pass the first update, 1.5e200 or 1.25e200, although
    # the solution is 1e200 g1
    calls = []

    def field_of(c):
        def field(g, mu):
            calls.append(None)
            return c + 0.5 * g, c + 0.5 * np.asarray(mu)

        return field

    got, _ = symplectic_step(_LINE, field_of(1.0), np.zeros(1), np.zeros(1), 1.0, theta)
    np.testing.assert_allclose(got, [g1], rtol=1e-12)
    calls.clear()
    with np.errstate(over="ignore"), pytest.raises(
        NonConvergenceError, match="^implicit solve: predictor is not finite$"
    ):
        symplectic_step(_LINE, field_of(1e200), np.zeros(1), np.zeros(1), 1.0, theta)
    assert len(calls) <= 2


def test_symplectic_solve_refuses_an_iterate_whose_norm_overflows():
    # G returns 6e153 in both entries (|x|^2 = 7.2e307), then 1.2e154: the
    # sweep to it has |dx|^2 = 7.2e307, yet |x|^2 overflows.  The next update,
    # 1e150, is far above 1e-13 |x| = 1.7e141, but an inf bound would pass it
    values = [6e153, 1.2e154, 1.2e154 - 1e150]
    calls = []

    def field(g, mu):
        value = np.full(1, values[len(calls)])
        calls.append(None)
        return value, value

    with np.errstate(over="ignore"), pytest.raises(
        NonConvergenceError, match="^implicit solve: iterate is not finite$"
    ):
        symplectic_step(_LINE, field, np.zeros(1), np.zeros(1), 1.0, 0.5)
    assert len(calls) == 3


def _heavy_top_case(system_id):
    """(group with its exact Jacobian, field, g0, mu0) of a heavy top."""
    system = get_system(system_id)
    return (system.cotangent.group, system.cotangent.f, *system.cotangent.unpack(system.initial))


# the free body on groups without a Jacobian (J = I), and the heavy tops
# on groups carrying their exact J
_STEP_CASES = [
    (so3_cotangent_group(), _free_rigid_body, exp_so3([0.3, -0.2, 0.9]),
     np.array([0.4, -1.0, 0.7])),
    (so3rn_cotangent_group(3), _free_rigid_body_r3, (*exp_so3([0.3, -0.2, 0.9]).ravel(), 1.0, 1.0, 1.0),
     np.array([0.4, -1.0, 0.7, 0.0, 0.0, 0.0])),
    _heavy_top_case("heavytop-spatial"),
    _heavy_top_case("heavytop-ext"),
]
_STEP_IDS = ["so3", "so3r3", "heavytop-spatial", "heavytop-ext"]


@pytest.mark.parametrize("group, field, g0, mu0", _STEP_CASES, ids=_STEP_IDS)
def test_symplectic_nan_field_does_not_converge(group, field, g0, mu0):
    # the solve checks the predictor, so it does not sweep max_iter times
    calls = []

    def nan_field(g, mu):
        calls.append(None)
        xi, torque = field(g, mu)
        return np.full(len(xi), np.nan), torque

    with pytest.raises(NonConvergenceError):
        symplectic_step(group, nan_field, g0, mu0, 0.02, 0.5)
    assert len(calls) <= 2


def test_symplectic_fixed_point_diverges_for_huge_steps():
    # the diverging iterates either stall or blow past the exp branch;
    # both surface as exceptions rather than a silently wrong step
    from geomint.lie import BranchError

    group = so3_cotangent_group()
    mu0 = np.array([50.0, -80.0, 30.0])
    with pytest.raises((NonConvergenceError, BranchError)):
        symplectic_step(group, _free_rigid_body, np.eye(3), mu0, 1.0, 0.5)


def test_symplectic_midpoint_is_time_reversible():
    group = so3_cotangent_group()
    g0, mu0 = exp_so3(rng.normal(size=3)), rng.normal(size=3)
    g1, mu1 = symplectic_step(group, _free_rigid_body, g0, mu0, 0.05, 0.5)
    g2, mu2 = symplectic_step(group, _free_rigid_body, g1, mu1, -0.05, 0.5)
    np.testing.assert_allclose(g2, g0, atol=1e-10)
    np.testing.assert_allclose(mu2, mu0, atol=1e-10)


def test_symplectic_newton_agrees_with_fixed_point():
    # the J = I sweep against Newton on a J the group record supplies,
    # here central differences of the residual map
    group = so3_cotangent_group()

    def jacobian(g0, mu0, h, theta, x):
        G = _symplectic_residual_map(group, _free_rigid_body, g0, mu0, h, theta)
        return np.array([(G(x + e) - G(x - e)) / 2e-6 for e in 1e-6 * np.eye(6)]).T

    g0, mu0 = np.eye(3), np.array([0.4, -1.0, 0.7])
    g_a, mu_a = symplectic_step(group, _free_rigid_body, g0, mu0, 0.02, 0.3)
    g_b, mu_b = symplectic_step(
        replace(group, jacobian=jacobian), _free_rigid_body, g0, mu0, 0.02, 0.3
    )
    np.testing.assert_allclose(g_a, g_b, atol=1e-11)
    np.testing.assert_allclose(mu_a, mu_b, atol=1e-11)


@pytest.mark.parametrize("last_pivot", [0.0, 1e-14], ids=["singular", "near-singular"])
def test_symplectic_singular_jacobian_does_not_converge(last_pivot):
    # dG = I - J for J = diag(1, ..., 1, last_pivot)
    def jacobian(g0, mu0, h, theta, x):
        return np.diag([0.0] * 5 + [1.0 - last_pivot])

    group = replace(so3_cotangent_group(), jacobian=jacobian)
    with pytest.raises(NonConvergenceError, match="Jacobian is singular"):
        symplectic_step(group, _free_rigid_body, np.eye(3), np.array([0.4, -1.0, 0.7]),
                        0.02, 0.5)


def test_symplectic_conserves_free_energy():
    group = so3_cotangent_group()
    g, mu = np.eye(3), np.array([0.4, -1.0, 0.7])

    def energy(g, mu):
        body = g.T @ mu
        return 0.5 * float(body @ (body / _I_BODY))

    e0 = energy(g, mu)
    for _ in range(200):
        g, mu = symplectic_step(group, _free_rigid_body, g, mu, 0.05, 0.5)
    assert abs(energy(g, mu) - e0) < 1e-4
    # spatial momentum is conserved exactly for the free body
    assert abs(np.linalg.norm(mu) - np.linalg.norm([0.4, -1.0, 0.7])) < 1e-10


def test_so3r3_group_blocks():
    group = so3rn_cotangent_group(3)
    xi = rng.normal(size=6)
    mu = rng.normal(size=6)
    g = group.exp(xi)
    R = np.reshape(g[:9], (3, 3))
    np.testing.assert_allclose(R, exp_so3(xi[:3]), atol=1e-15)
    np.testing.assert_array_equal(g[9:], xi[3:])
    out = group.coad(g, mu)
    np.testing.assert_allclose(out[:3], R.T @ mu[:3], atol=1e-15)
    np.testing.assert_array_equal(out[3:], mu[3:])
    ds = group.dexp_star(xi, mu)
    np.testing.assert_allclose(ds[:3], dexp_star_so3(xi[:3], mu[:3]), atol=1e-15)
    np.testing.assert_array_equal(ds[3:], mu[3:])


# numpy maps of the (SO(3) x R^n) cotangent group before they were written
# on floats, kept as the reference for the closed forms; an element is the
# pair (R, the R^n part), and n is the length of the algebra element less 3
_REFERENCE_SO3R3 = CotangentGroup(
    algebra_dim=6,
    exp=lambda xi: (exp_so3(xi[:3]), np.asarray(xi[3:], dtype=float)),
    compose=lambda g1, g2: (g1[0] @ g2[0], g1[1] + g2[1]),
    coad=lambda g, mu: np.concatenate([g[0].T @ mu[:3], mu[3:]]),
    dexp_star=lambda u, mu: np.concatenate([dexp_star_so3(u[:3], mu[:3]), mu[3:]]),
)


def _flat_element(g_ref):
    """The reference's (R, the R^n part) as the 9 + n floats of the float group."""
    return (*g_ref[0].ravel().tolist(), *g_ref[1].tolist())


def test_so3r3_group_matches_numpy_reference():
    # the float group at n = 0 and 3; tolerance fixed beforehand: 1e-13 of
    # the largest reference entry
    ref = _REFERENCE_SO3R3

    def close(out, expected):
        out, expected = np.asarray(out), np.asarray(expected)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))

    for n in (0, 3):
        group = so3rn_cotangent_group(n)
        for _ in range(500):
            # rotation angles below 2 pi, either side of the series cutoff 0.5
            u = rng.normal(size=3 + n)
            u[:3] *= rng.uniform(0.0, 2.0 * np.pi) / np.linalg.norm(u[:3])
            mu = 50.0 * rng.normal(size=3 + n)
            g, g_ref = group.exp(u.tolist()), ref.exp(u)
            close(g, _flat_element(g_ref))
            close(group.coad(_flat_element(g_ref), mu.tolist()), ref.coad(g_ref, mu))
            close(group.dexp_star(u.tolist(), mu.tolist()), ref.dexp_star(u, mu))
            h_ref = ref.exp(rng.normal(size=3 + n))
            close(group.compose(_flat_element(g_ref), _flat_element(h_ref)),
                  _flat_element(ref.compose(g_ref, h_ref)))


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("n, system_id", [(0, "heavytop-spatial"), (3, "heavytop-ext")])
def test_so3rn_closed_form_residual_is_the_generic_map_bit_for_bit(n, system_id, theta):
    # the field (g, mu) -> (g, mu) at h = 1 shows the group element and
    # M_theta themselves, the heavy top's field a realistic G; the R^n tails
    # xi_t and nbar_t are nonzero, which the extended top's solve never makes
    group = so3rn_cotangent_group(n)
    fields = [(lambda g, mu: (g, mu), 1.0), (get_system(system_id).cotangent.f, 0.01)]
    for f, h in fields:
        for angle in (0.3, 0.8, 1.5, 2.0, 5.0, 6.2):
            g0 = (*exp_so3(rng.normal(size=3)).ravel().tolist(), *rng.normal(size=n).tolist())
            mu0 = rng.normal(size=3 + n).tolist()
            x = rng.normal(size=6 + 2 * n)
            x[:3] *= angle / np.linalg.norm(x[:3])
            closed = group.residual(f, g0, mu0, h, theta)(x)
            generic = _symplectic_residual_map(group, f, g0, mu0, h, theta)(x)
            np.testing.assert_array_equal(closed, generic)
            assert closed.tobytes() == generic.tobytes()  # signed zeros too
            x[:3] *= 2.0 * np.pi * (1.0 + 1e-12) / np.linalg.norm(x[:3])
            for G in (group.residual(f, g0, mu0, h, theta),
                      _symplectic_residual_map(group, f, g0, mu0, h, theta)):
                with pytest.raises(BranchError):
                    G(x)


@pytest.mark.parametrize("group, field, g0, mu0", _STEP_CASES, ids=_STEP_IDS)
def test_symplectic_step_accepts_a_field_returning_lists(group, field, g0, mu0):
    def as_lists(g, mu):
        return tuple(np.asarray(a).tolist() for a in field(g, mu))

    def flat(g):
        return np.concatenate([np.ravel(a) for a in (g if isinstance(g, tuple) else (g,))])

    # h = 0.01: the heavy tops' benchmark step; at 0.05 the fast top
    # leaves the exp branch
    g1, mu1 = symplectic_step(group, as_lists, g0, mu0, 0.01, 0.5)
    g2, mu2 = symplectic_step(group, field, g0, mu0, 0.01, 0.5)
    np.testing.assert_array_equal(flat(g1), flat(g2))
    np.testing.assert_array_equal(mu1, mu2)
