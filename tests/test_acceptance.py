"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) before asserting, so the whole gate can be read off the
test output at a glance.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.linalg import expm

from _reference import aux_stepper, coadjoint_so3_action, dexpinv_series, generator
from geomint.actions import translation_action
from geomint.integrators import (
    DOPRI54,
    KUTTA3,
    METHODS,
    RK4,
    ControllerConfig,
    adaptive_integrate,
    fixed_integrate,
    so3_cotangent_group,
    symplectic_step,
)
from geomint.harness import reference_state
from geomint.lie import (
    dexpinv_se3,
    dexpinv_so3,
    exp_se3,
    exp_so3,
    hat,
)
from geomint.systems import get_system, symplectic_integrate

rng = np.random.default_rng(314)


def _report(criterion: int, label: str, ok: bool, detail: str = "", *, start: float) -> None:
    """Prints the criterion's line with the seconds since ``start``."""
    status = "PASS" if ok else "FAIL"
    elapsed = f"[{time.monotonic() - start:.1f}s]"
    print(f"[{status}] criterion {criterion}: {label} {elapsed} {detail}".rstrip(), flush=True)


_REFS: dict = {}


def _reference(system_id: str, t_end: float):
    key = (system_id, t_end)
    if key not in _REFS:
        _REFS[key] = reference_state(get_system(system_id), 0.0, t_end)
    return _REFS[key]


def _ladder_slope(system, stepper, h0, t_end, ref):
    hs, errs = [], []
    for k in range(4, 10):
        n = max(1, round(t_end / (h0 * 2.0**-k)))
        _, ys = fixed_integrate(
            system.action, system.field, stepper, system.initial, 0.0, t_end, n
        )
        hs.append(t_end / n)
        errs.append(float(np.linalg.norm(ys[-1] - ref)))
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def _symplectic_slope(system_id, theta, h0, t_end, ref):
    system = get_system(system_id)
    hs, errs = [], []
    for k in range(4, 10):
        n = max(1, round(t_end / (h0 * 2.0**-k)))
        _, ys = symplectic_integrate(system, theta, t_end / n, n)
        hs.append(t_end / n)
        errs.append(float(np.linalg.norm(ys[-1] - ref)))
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# Criterion 1: measured convergence orders match the nominal orders


# (method, system, base step, T, expected main order, expected aux order)
# Base steps are tuned per method: the fast benchmark top constrains the
# top rung (exp must stay on its principal branch), and the highest-order
# pairs need the pendulum's gentler error floor for the deep rungs.
_LADDERS = [
    ("lie-euler", "pendulum", 0.2, 1.0, 1, None),
    ("heun", "pendulum", 0.5, 2.0, 2, None),
    ("rkmk3", "heavytop-spatial", 0.1, 1.0, 3, None),
    ("rkmk4", "heavytop-spatial", 0.15, 1.0, 4, None),
    ("rkmk4-2c", "pendulum", 1.0, 2.0, 4, None),
    ("cf4", "heavytop-spatial", 0.05, 1.0, 4, None),
    ("cf32a", "heavytop-spatial", 0.1, 1.0, 3, 2),
    ("cf32b", "heavytop-spatial", 0.1, 1.0, 3, 2),
    ("cf43", "heavytop-spatial", 0.05, 1.0, 4, None),
    ("cf43", "heavytop-spatial", 0.1, 1.0, None, 3),
    ("rkmk54", "heavytop-spatial", 0.1, 1.0, 5, 4),
]


def test_criterion_1_convergence_orders():
    start = time.monotonic()
    failures = []
    lines = []
    for method, system_id, h0, t_end, p, p_hat in _LADDERS:
        system = get_system(system_id)
        ref = _reference(system_id, t_end)
        stepper = METHODS[method].stepper
        if p is not None:
            slope = _ladder_slope(system, stepper, h0, t_end, ref)
            lines.append(f"{method}:{slope:.2f}(p={p})")
            if abs(slope - p) > 0.25:
                failures.append(f"{method} main slope {slope:.3f} != {p}")
        if p_hat is not None:
            slope = _ladder_slope(system, aux_stepper(stepper), h0, t_end, ref)
            lines.append(f"{method}^:{slope:.2f}(p={p_hat})")
            if abs(slope - p_hat) > 0.25:
                failures.append(f"{method} aux slope {slope:.3f} != {p_hat}")

    # implicit family on the cotangent forms: endpoints are first order,
    # the midpoint second order
    ref_sp = _reference("heavytop-spatial", 0.1)
    for theta, p in ((0.0, 1), (0.5, 2), (1.0, 1)):
        slope = _symplectic_slope("heavytop-spatial", theta, 0.02, 0.1, ref_sp)
        lines.append(f"sympl({theta}):{slope:.2f}(p={p})")
        if abs(slope - p) > 0.25:
            failures.append(f"symplectic theta={theta} slope {slope:.3f} != {p}")
    ref_ext = _reference("heavytop-ext", 0.1)
    slope = _symplectic_slope("heavytop-ext", 0.5, 0.02, 0.1, ref_ext)
    lines.append(f"sympl-ext(0.5):{slope:.2f}(p=2)")
    if abs(slope - 2) > 0.25:
        failures.append(f"symplectic ext slope {slope:.3f} != 2")

    elapsed = time.monotonic() - start
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    ok = not failures
    _report(1, "convergence orders", ok, " ".join(lines), start=start)
    assert ok, failures


# ---------------------------------------------------------------------------
# Criterion 2: Lie schemes keep the pendulum on (TS^2)^N; classical RK4
# does not


def _nonplanar_initial():
    # the benchmark start lies in the x-z plane, a symmetry the classical
    # scheme preserves exactly; tilt it so the control has nothing to hide
    # behind
    s = np.sqrt(2.0) / 2.0
    raw = np.array(
        [s, 0.10, s, 0.05, 1.0, -0.03, s, -0.07, s, -0.02, 1.0, 0.08]
    ).reshape(2, 6)
    for link in raw:
        link[:3] /= np.linalg.norm(link[:3])
        link[3:] -= (link[3:] @ link[:3]) * link[:3]
    return raw.ravel()


def test_criterion_2_pendulum_manifold_preservation():
    start = time.monotonic()
    T, n = 5.0, 500
    system = get_system("pendulum")

    def worst(ys):
        return max(
            max(system.invariants["max_q_norm_error"](y) for y in ys),
            max(system.invariants["max_tangency_error"](y) for y in ys),
        )

    lie_worst = 0.0
    for method in ("lie-euler", "heun", "rkmk4", "cf4", "cf43", "rkmk54"):
        for y0 in (system.initial, _nonplanar_initial()):
            _, ys = fixed_integrate(
                system.action, system.field, METHODS[method].stepper, y0, 0.0, T, n
            )
            lie_worst = max(lie_worst, worst(ys))

    # classical RK4 control on the flat ambient coordinates
    ambient = translation_action(12)
    amb_f = lambda y: generator(system.action)(system.field(y), y)
    _, ys = fixed_integrate(
        ambient, amb_f, METHODS["rkmk4"].stepper, _nonplanar_initial(), 0.0, T, n
    )
    classical_worst = worst(ys)

    ok = lie_worst <= 1e-12 and classical_worst >= 1e-9
    _report(
        2,
        "pendulum manifold preservation",
        ok,
        f"lie={lie_worst:.2e} (<=1e-12), classical RK4={classical_worst:.2e} (>=1e-9)",
        start=start,
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: coadjoint integration preserves the se(3)* Casimirs


def test_criterion_3_liepoisson_casimirs():
    start = time.monotonic()
    system = get_system("heavytop-lp")
    T, h = 10.0, 1e-2
    gamma0 = np.linalg.norm(system.initial[3:6])
    pg0 = float(system.initial[:3] @ system.initial[3:6])
    worst_gamma, worst_pg = 0.0, 0.0
    for method in ("lie-euler", "heun", "rkmk4", "cf4", "rkmk54"):
        _, ys = fixed_integrate(
            system.action,
            system.field,
            METHODS[method].stepper,
            system.initial,
            0.0,
            T,
            round(T / h),
        )
        worst_gamma = max(
            worst_gamma, max(abs(np.linalg.norm(y[3:6]) - gamma0) for y in ys)
        )
        worst_pg = max(worst_pg, max(abs(y[:3] @ y[3:6] - pg0) for y in ys))
    ok = worst_gamma <= 1e-12 and worst_pg <= 1e-10
    _report(
        3,
        "Lie-Poisson Casimirs",
        ok,
        f"|Gamma| drift {worst_gamma:.2e} (<=1e-12), Pi.Gamma drift {worst_pg:.2e} (<=1e-10)",
        start=start,
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: midpoint member of the implicit family shows no energy
# drift over 6000 steps; p is exactly constant, Gamma0.pi conserved


def test_criterion_4_symplectic_long_run():
    start = time.monotonic()
    system = get_system("heavytop-ext")
    h, n = 0.01, 6000
    # h = 0.01 is the step of the harness and the benchmark; the implicit
    # step's simplified Newton solve on the exact Jacobian converges there
    _, ys = symplectic_integrate(system, 0.5, h, n)
    e = np.array([system.energy(y) for y in ys])
    err = np.abs(e - e[0])
    half = len(err) // 2
    first, second = err[:half].max(), err[half:].max()
    p0 = ys[0][12:15]
    p_drift = max(np.max(np.abs(y[12:15] - p0)) for y in ys)
    gamma0 = np.array([0.0, 0.0, -9.81])
    pg0 = float(gamma0 @ ys[0][9:12])
    pg_drift = max(abs(gamma0 @ y[9:12] - pg0) for y in ys)
    ok = second <= 2.0 * first and p_drift <= 1e-12 and pg_drift <= 1e-10
    _report(
        4,
        "symplectic midpoint long run",
        ok,
        f"|dE| halves {first:.3e}/{second:.3e}, p drift {p_drift:.1e}, "
        f"Gamma0.pi drift {pg_drift:.2e}",
        start=start,
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: kernel oracles


def test_criterion_5_kernel_oracles():
    start = time.monotonic()
    failures = []
    for _ in range(50):
        u = rng.normal(size=3)
        if np.max(np.abs(exp_so3(u) - expm(hat(u)))) > 1e-12:
            failures.append("exp_so3 vs expm")
        x = rng.normal(size=6)
        M = np.zeros((4, 4))
        M[:3, :3] = hat(x[:3])
        M[:3, 3] = x[3:]
        E = expm(M)
        R, r = exp_se3(x)
        if np.max(np.abs(R - E[:3, :3])) > 1e-12 or np.max(np.abs(r - E[:3, 3])) > 1e-12:
            failures.append("exp_se3 vs expm")

    # dexpinv agrees with the order-8 expansion to O(||u||^9)
    ratios = []
    for dim, exact in ((3, dexpinv_so3), (6, dexpinv_se3)):
        u = rng.normal(size=dim)
        u = 0.2 * u / np.linalg.norm(u)
        v = rng.normal(size=dim)
        d1 = np.linalg.norm(exact(u, v) - dexpinv_series(u, v, 8))
        d2 = np.linalg.norm(exact(0.5 * u, v) - dexpinv_series(0.5 * u, v, 8))
        ratios.append(d1 / d2)
        if d1 / d2 < 2**8 * 0.8:
            failures.append(f"dexpinv decay dim {dim}: ratio {d1 / d2:.1f}")

    ok = not failures
    _report(
        5,
        "kernel oracles",
        ok,
        f"decay ratios {ratios[0]:.0f}/{ratios[1]:.0f} (>= {2**8 * 0.8:.0f})",
        start=start,
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# Criterion 6: the step controller keeps accepted errors below tolerance
# and beats a fixed grid with the same step budget


def test_criterion_6_adaptive_controller():
    start = time.monotonic()
    failures = []
    details = []
    info = METHODS["rkmk54"]
    for system_id in ("heavytop-spatial", "pendulum", "quadrotor"):
        system = get_system(system_id)
        for tol in (1e-4, 1e-6):
            cfg = ControllerConfig(tol=tol, alpha=info.alpha)
            res = adaptive_integrate(
                system.action, system.field, info.stepper, system.initial,
                0.0, 3.0, 0.01, cfg,
            )
            worst = max(a.error_estimate for a in res.step_log if a.accepted)
            if worst >= tol:
                failures.append(f"{system_id} tol={tol}: accepted e {worst:.2e}")
    details.append("accepted errors < tol on 3 systems x 2 tolerances")

    # pendulum at tol = 1e-6: the smallest accepted step lands in the
    # stiff passage t in [2.0, 2.4]
    system = get_system("pendulum")
    cfg = ControllerConfig(tol=1e-6, alpha=0.2)
    res = adaptive_integrate(
        system.action, system.field, info.stepper, system.initial, 0.0, 3.0, 0.05, cfg
    )
    accepted = [a for a in res.step_log if a.accepted]
    t_min = min(accepted, key=lambda a: a.h).t
    if not 2.0 <= t_min <= 2.4:
        failures.append(f"min step at t = {t_min:.3f}, outside [2.0, 2.4]")
    details.append(f"min step at t={t_min:.3f}")

    # same step budget, fixed grid, fifth-order update: adaptive wins
    ref = _reference("pendulum", 3.0)
    _, ys_fixed = fixed_integrate(
        system.action, system.field, METHODS["rkmk54"].stepper, system.initial,
        0.0, 3.0, len(accepted),
    )
    err_adaptive = float(np.linalg.norm(res.ys[-1] - ref))
    err_fixed = float(np.linalg.norm(ys_fixed[-1] - ref))
    if err_adaptive >= err_fixed:
        failures.append(f"adaptive {err_adaptive:.2e} not below fixed {err_fixed:.2e}")
    details.append(f"adaptive {err_adaptive:.1e} vs fixed {err_fixed:.1e}")

    ok = not failures
    _report(6, "adaptive controller", ok, "; ".join(details), start=start)
    assert ok, failures


# ---------------------------------------------------------------------------
# Criterion 7: constant fields are integrated exactly; on a linear space
# every scheme collapses to its classical counterpart


def test_criterion_7_exactness_and_reduction():
    start = time.monotonic()
    failures = []

    action = coadjoint_so3_action()
    c = np.array([0.4, -0.2, 0.7])
    y0 = np.array([1.0, 2.0, -1.0])
    exact = action.act(exp_so3(c), y0)
    worst_const = 0.0
    for method, info in METHODS.items():
        _, ys = fixed_integrate(action, lambda m: c, info.stepper, y0, 0.0, 1.0, 16)
        worst_const = max(worst_const, float(np.linalg.norm(ys[-1] - exact)))
    # the implicit family with f = 0 must return its arguments unchanged
    g1, mu1 = symplectic_step(
        so3_cotangent_group(),
        lambda g, mu: (np.zeros(3), np.zeros(3)),
        exp_so3(c),
        y0,
        0.3,
        0.5,
    )
    worst_const = max(
        worst_const,
        float(np.linalg.norm(g1 - exp_so3(c))),
        float(np.linalg.norm(mu1 - y0)),
    )
    if worst_const > 1e-13:
        failures.append(f"constant field error {worst_const:.2e}")

    # linear-space reduction against hand-rolled classical steps
    A = np.array([[0.0, 1.0], [-4.0, -0.1]])
    flat = translation_action(2)
    f = lambda y: A @ y
    y = np.array([1.0, -0.3])
    h = 0.05

    def classical(tableau, y, h):
        k = []
        for i in range(tableau.stages):
            yi = y + h * sum(tableau.a[i][j] * k[j] for j in range(i)) if i else y
            k.append(f(yi))
        return y + h * sum(b * ki for b, ki in zip(tableau.b, k))

    worst_red = 0.0
    pairs = [("rkmk3", KUTTA3), ("rkmk4", RK4), ("rkmk4-2c", RK4), ("cf4", RK4),
             ("rkmk54", DOPRI54)]
    for method, tableau in pairs:
        yl, yc = y.copy(), y.copy()
        for _ in range(20):
            yl = METHODS[method].stepper(flat, f, yl, h)[0]
            yc = classical(tableau, yc, h)
        worst_red = max(worst_red, float(np.linalg.norm(yl - yc)))
    if worst_red > 1e-12:
        failures.append(f"linear reduction error {worst_red:.2e}")

    ok = not failures
    _report(
        7,
        "constant-field exactness and linear reduction",
        ok,
        f"const {worst_const:.1e} (<=1e-13), reduction {worst_red:.1e} (<=1e-12)",
        start=start,
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# Criterion 8: quadrotor benchmark invariants, order, and energy


def test_criterion_8_quadrotor():
    start = time.monotonic()
    failures = []
    system = get_system("quadrotor")

    _, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk4"].stepper, system.initial,
        0.0, 10.0, 1000,
    )
    geom = max(
        max(system.invariants[name](y) for y in ys)
        for name in ("max_q_norm_error", "max_tangency_error", "max_orthogonality_error")
    )
    if geom > 1e-12:
        failures.append(f"geometry drift {geom:.2e}")

    ref = _reference("quadrotor", 1.0)
    slope = _ladder_slope(system, METHODS["rkmk4"].stepper, 3.2, 1.0, ref)
    if abs(slope - 4.0) > 0.25:
        failures.append(f"rkmk4 slope {slope:.3f}")

    _, ys1 = fixed_integrate(
        system.action, system.field, METHODS["rkmk54"].stepper, system.initial,
        0.0, 1.0, 200,
    )
    e = [system.energy(y) for y in ys1]
    drift = max(abs(ei - e[0]) for ei in e)
    if drift > 1e-8:
        failures.append(f"energy drift {drift:.2e}")

    ok = not failures
    _report(
        8,
        "quadrotor benchmark",
        ok,
        f"geometry {geom:.1e} (<=1e-12), slope {slope:.2f} (4±0.25), energy {drift:.1e} (<=1e-8)",
        start=start,
    )
    assert ok, failures
