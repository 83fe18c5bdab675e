from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from _reference import generator, lagrange_top_u
from geomint.harness import reference_state
from geomint.integrators import (
    METHODS,
    ControllerConfig,
    NonConvergenceError,
    SolveConfig,
    _symplectic_residual_map,
    adaptive_integrate,
    fixed_integrate,
    symplectic_step,
)
from geomint.kernels import cross
from geomint.lie import exp_so3
from geomint.systems import get_system, symplectic_integrate
from geomint.systems.heavytop import (
    BRULS_TOP,
    HeavyTopParams,
    body_energy,
    build_body,
    build_ext,
    build_liepoisson,
    build_spatial,
    bruls_momentum,
    ext_energy,
    ext_initial_p,
    heavytop_body_f,
    heavytop_ext_f_pair,
    heavytop_liepoisson_f,
    heavytop_spatial_f_pair,
    pack_ext,
    pack_spatial,
    unpack_ext,
    unpack_spatial,
)

rng = np.random.default_rng(5)


def _random_state():
    Q = exp_so3(rng.normal(size=3))
    pi = rng.normal(size=3)
    return Q, pi


# -- parameters ----------------------------------------------------------------


def test_benchmark_parameters():
    assert BRULS_TOP.inertia == (0.234375, 0.46875, 0.234375)
    assert BRULS_TOP.mass == 15.0 and BRULS_TOP.length == 2.0
    assert BRULS_TOP.gravity == 1.0
    assert BRULS_TOP.mgl == 30.0
    np.testing.assert_array_equal(BRULS_TOP.g0, [0.0, 0.0, -9.81])
    np.testing.assert_allclose(
        bruls_momentum(), [0.0, 0.46875 * 150.0, 0.234375 * -4.61538], atol=1e-15
    )


def test_parameter_arrays_are_built_once_and_read_only():
    params = HeavyTopParams(inertia=(1.0, 2.0, 4.0), mass=1.0, length=1.0)
    for name in ("inertia_inv", "chi", "g0"):
        a = getattr(params, name)
        assert getattr(params, name) is a
        with pytest.raises(ValueError):
            a[0] = 1.0
    np.testing.assert_array_equal(params.inertia_inv, [1.0, 0.5, 0.25])


def test_built_maps_read_no_parameter_per_call(monkeypatch):
    # each field and pair reads the parameters when it is built: once every
    # parameter read raises, the built maps still run and give the same values
    params = HeavyTopParams(inertia=(1.0, 2.0, 4.0), mass=3.0, length=0.5, gravity=1.5,
                            axis=(0.6, 0.0, 0.8), gamma0=(0.5, -1.0, -9.0))
    move = np.random.default_rng(11)
    systems = [build(params) for build in (build_body, build_spatial, build_liepoisson, build_ext)]
    calls = [(s.field, (s.initial + 0.1 * move.normal(size=s.initial.shape),)) for s in systems]
    calls += [(s.cotangent.f, s.cotangent.unpack(s.initial)) for s in systems if s.cotangent]
    expected = [f(*args) for f, args in calls]

    def refuse(self):
        raise AssertionError("a heavy-top parameter read after the map was built")

    for name in ("inertia", "mass", "length", "gravity", "axis", "gamma0",
                 "inertia_inv", "mgl", "chi", "g0"):
        monkeypatch.setattr(HeavyTopParams, name, property(refuse), raising=False)
    with pytest.raises(AssertionError):
        params.mgl
    for (f, args), out in zip(calls, expected):
        np.testing.assert_array_equal(f(*args), out)


def test_params_validation():
    with pytest.raises(ValueError):
        HeavyTopParams(inertia=(1.0, -1.0, 1.0), mass=1.0, length=1.0)
    with pytest.raises(ValueError):
        HeavyTopParams(inertia=(1.0, 1.0, 1.0), mass=1.0, length=1.0, axis=(1.0, 1.0, 0.0))
    # NaN fails every ordered comparison, so each value is checked for finiteness
    base = dict(inertia=(1.0, 1.0, 1.0), mass=1.0, length=1.0)
    for bad in ({"mass": np.nan}, {"length": np.inf}, {"gravity": np.nan},
                {"inertia": (1.0, np.nan, 1.0)}, {"gamma0": (0.0, 0.0, -np.inf)},
                {"mass": 0.0}, {"length": -2.0}, {"mass": 1e308, "length": 1e308}):
        with pytest.raises(ValueError):
            HeavyTopParams(**{**base, **bad})


# -- field oracles --------------------------------------------------------------


def test_body_field_oracle():
    params = BRULS_TOP
    Q, _ = _random_state()
    Pi = np.array([1.0, -2.0, 0.5])
    m = np.concatenate([Q.ravel(), Pi])
    out = heavytop_body_f(params)(m)
    omega = Pi / np.asarray(params.inertia)
    gamma = Q.T @ params.g0
    np.testing.assert_allclose(out[:3], omega, atol=1e-15)
    np.testing.assert_allclose(
        out[3:], np.cross(Pi, omega) + 30.0 * np.cross(gamma, [0.0, 1.0, 0.0]),
        atol=1e-13,
    )


def test_spatial_field_consistent_with_body_form():
    # push the body-form derivative through pi = Q Pi and compare
    params = BRULS_TOP
    Q, _ = _random_state()
    Pi = rng.normal(size=3)
    body = np.concatenate([Q.ravel(), Pi])
    fb = heavytop_body_f(params)(body)
    omega_b, Pi_dot = fb[:3], fb[3:]
    Q_dot = Q @ np.array(
        [[0, -omega_b[2], omega_b[1]], [omega_b[2], 0, -omega_b[0]], [-omega_b[1], omega_b[0], 0]]
    )
    pi_dot_expected = Q_dot @ Pi + Q @ Pi_dot

    spatial = np.concatenate([Q.ravel(), Q @ Pi])
    system = build_spatial(params)
    fs = system.field(spatial)
    dm = generator(system.action)(fs, spatial)
    np.testing.assert_allclose(dm[:9].reshape(3, 3), Q_dot, atol=1e-11)
    np.testing.assert_allclose(dm[9:12], pi_dot_expected, atol=1e-11)


def test_liepoisson_field_reproduces_reduced_equations():
    params = BRULS_TOP
    mu = rng.normal(size=6)
    Pi, Gamma = mu[:3], mu[3:]
    system = get_system("heavytop-lp")
    dmu = generator(system.action)(heavytop_liepoisson_f(params)(mu), mu)
    omega = Pi / np.asarray(params.inertia)
    np.testing.assert_allclose(
        dmu[:3], np.cross(Pi, omega) + 30.0 * np.cross(Gamma, [0, 1.0, 0]), atol=1e-12
    )
    np.testing.assert_allclose(dmu[3:], np.cross(Gamma, omega), atol=1e-12)


def test_ext_field_keeps_p_frozen():
    params = BRULS_TOP
    Q, pi = _random_state()
    m = np.concatenate([Q.ravel(), pi, ext_initial_p(params), rng.normal(size=3)])
    out = build_ext(params).field(m)
    np.testing.assert_array_equal(out[6:9], np.zeros(3))


def test_ext_energy_is_body_energy_plus_constant():
    # with p = -Mgl X: |p - Gamma|^2/2 - |Gamma|^2/2 = |p|^2/2 + Mgl X.Gamma
    params = BRULS_TOP
    Q, pi = _random_state()
    ext = np.concatenate([Q.ravel(), pi, ext_initial_p(params), np.zeros(3)])
    body = np.concatenate([Q.ravel(), Q.T @ pi])
    const = 0.5 * 30.0**2
    assert ext_energy(params, ext) == pytest.approx(body_energy(params, body) + const)


# Numpy forms of the Hamiltonian pairs before they were written on floats,
# kept as references for the closed forms.


def _reference_spatial_pair(params):
    def f(g, mu):
        omega = g @ (params.inertia_inv * (g.T @ mu))
        return omega, params.mgl * cross(params.g0, g @ params.chi) + cross(mu, omega)

    return f


def _reference_ext_pair(params):
    def f(g, mu):
        Q, _q = g
        pi, p = mu[:3], mu[3:6]
        omega = Q @ (params.inertia_inv * (Q.T @ pi))
        f1 = np.concatenate([omega, p - Q.T @ params.g0])
        f2 = np.concatenate([-cross(params.g0, Q @ p) + cross(pi, omega), np.zeros(3)])
        return f1, f2

    return f


def _random_top():
    axis = rng.normal(size=3)
    return HeavyTopParams(
        inertia=tuple(rng.uniform(0.1, 2.0, size=3)),
        mass=rng.uniform(1.0, 20.0),
        length=rng.uniform(0.5, 3.0),
        gravity=rng.uniform(0.5, 2.0),
        axis=tuple(axis / np.linalg.norm(axis)),
        gamma0=tuple(10.0 * rng.normal(size=3)),
    )


def _random_rotation():
    u = rng.normal(size=3)
    return exp_so3(rng.uniform(0.0, 2.0 * np.pi) * u / np.linalg.norm(u))


@pytest.mark.parametrize(
    "pair, reference, ext",
    [(heavytop_spatial_f_pair, _reference_spatial_pair, False),
     (heavytop_ext_f_pair, _reference_ext_pair, True)],
    ids=["spatial", "ext"],
)
def test_hamiltonian_pairs_match_numpy_reference(pair, reference, ext):
    # tolerance fixed beforehand: 1e-13 of the largest reference entry
    for _ in range(200):
        params = _random_top()
        Q = _random_rotation()
        g, mu = ((Q, rng.normal(size=3)), 50.0 * rng.normal(size=6)) if ext else (
            Q, 50.0 * rng.normal(size=3))
        flat = (*Q.ravel().tolist(), *g[1].tolist()) if ext else tuple(Q.ravel().tolist())
        for out, ref in zip(pair(params)(flat, mu.tolist()), reference(params)(g, mu)):
            assert isinstance(out, list) and np.shape(out) == ref.shape
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


# Numpy forms of the explicit fields before they were written on floats,
# kept as references for the closed forms.  The spatial and ext fields were
# their Hamiltonian pairs laid out as the flat state, so they are pinned bit
# for bit to that layout of the pairs, and to rounding to the numpy pairs,
# whose matrix products go through BLAS.


def _reference_body_field(params, m):
    Q, Pi = m[:9].reshape(3, 3), m[9:12]
    omega = params.inertia_inv * Pi
    gamma = Q.T @ params.g0
    return np.concatenate([omega, cross(Pi, omega) + params.mgl * cross(gamma, params.chi)])


def _reference_lp_field(params, mu):
    return np.concatenate([-params.inertia_inv * mu[:3], -params.mgl * params.chi])


def _unpack_spatial_arrays(m):
    return m[:9].reshape(3, 3), m[9:12]


def _unpack_ext_arrays(m):
    return (m[:9].reshape(3, 3), m[15:18]), m[9:15]


def _spatial_layout(pair, unpack=unpack_spatial):
    return lambda params, m: np.concatenate(pair(params)(*unpack(m)))


def _ext_layout(pair, unpack=unpack_ext):
    def field(params, m):
        f1, f2 = pair(params)(*unpack(m))
        return np.concatenate([f1[:3], f2, f1[3:]])

    return field


# per form: build function, size of the state after the rotation block
# (None for no block), the reference pinned bit for bit and the numpy one
_FIELD_REFERENCES = {
    "body": (build_body, 3, _reference_body_field, _reference_body_field),
    "spatial": (build_spatial, 3, _spatial_layout(heavytop_spatial_f_pair),
                _spatial_layout(_reference_spatial_pair, _unpack_spatial_arrays)),
    "lp": (build_liepoisson, None, _reference_lp_field, _reference_lp_field),
    "ext": (build_ext, 9, _ext_layout(heavytop_ext_f_pair),
            _ext_layout(_reference_ext_pair, _unpack_ext_arrays)),
}


@pytest.mark.parametrize("form", sorted(_FIELD_REFERENCES))
def test_explicit_fields_match_their_references(form):
    build, rest, exact, reference = _FIELD_REFERENCES[form]

    def state():
        if rest is None:
            return 50.0 * rng.normal(size=6)
        return np.concatenate([_random_rotation().ravel(), 50.0 * rng.normal(size=rest)])

    field = build(BRULS_TOP).field
    for _ in range(50):
        m = state()
        np.testing.assert_array_equal(field(m), exact(BRULS_TOP, m))
    # tolerance fixed beforehand: 1e-13 of the largest reference entry
    for _ in range(200):
        params, m = _random_top(), state()
        ref = reference(params, m)
        np.testing.assert_allclose(build(params).field(m), ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))


# -- energy is a first integral of each field -----------------------------------


@pytest.mark.parametrize(
    "system_id", ["heavytop-body", "heavytop-spatial", "heavytop-lp", "heavytop-ext"]
)
def test_energy_directional_derivative_vanishes(system_id):
    system = get_system(system_id)
    y = system.initial
    dy = generator(system.action)(system.field(y), y)
    eps = 1e-7
    d = (system.energy(y + eps * dy) - system.energy(y - eps * dy)) / (2 * eps)
    assert abs(d) < 1e-5 * max(1.0, abs(system.energy(y)))


# -- formulation equivalence ------------------------------------------------------


def test_all_formulations_agree_on_short_runs():
    # each run carries its own truncation error, so the comparison
    # tolerance reflects the fifth-order local error at h |omega| ~ 0.08
    h, n = 5e-4, 400
    stepper = METHODS["rkmk54"].stepper
    runs = {}
    for sid in ("heavytop-body", "heavytop-spatial", "heavytop-lp", "heavytop-ext"):
        system = get_system(sid)
        _, ys = fixed_integrate(system.action, system.field, stepper, system.initial, 0.0, n * h, n)
        runs[sid] = ys[-1]

    Qb = runs["heavytop-body"][:9].reshape(3, 3)
    Pib = runs["heavytop-body"][9:12]
    Qs = runs["heavytop-spatial"][:9].reshape(3, 3)
    pis = runs["heavytop-spatial"][9:12]
    np.testing.assert_allclose(Qs, Qb, atol=1e-9)
    np.testing.assert_allclose(pis, Qb @ Pib, atol=1e-7)

    # Lie--Poisson carries (Pi, Gamma = Q^T Gamma0)
    np.testing.assert_allclose(runs["heavytop-lp"][:3], Pib, atol=1e-7)
    np.testing.assert_allclose(runs["heavytop-lp"][3:6], Qb.T @ BRULS_TOP.g0, atol=1e-8)

    np.testing.assert_allclose(runs["heavytop-ext"][:9].reshape(3, 3), Qb, atol=1e-9)
    np.testing.assert_allclose(runs["heavytop-ext"][9:12], pis, atol=1e-7)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_reference_state_follows_the_lagrange_top_in_closed_form(t):
    # u = Gamma . e2 / |Gamma0| nutates between 0 and 2.86e-3 with period
    # 0.021 s, so t = 2 lies about 95 periods out
    system = get_system("heavytop-lp")
    u = lagrange_top_u(BRULS_TOP, system.initial, t)
    end = reference_state(system, 0.0, t)
    assert abs(end[4] / np.linalg.norm(system.initial[3:6]) - u) < 1e-11


def _lagrange_u(system_id, ys):
    """u = Gamma . e2 / |Gamma0| along a trajectory of one heavy-top form;
    outside the Lie--Poisson form Gamma = Q^T Gamma0, so u = Q[:, 1] . Gamma0."""
    g0 = BRULS_TOP.g0
    gamma2 = ys[:, 4] if system_id == "heavytop-lp" else ys[:, 1:9:3] @ g0
    return gamma2 / np.linalg.norm(g0)


# heun's u superconverges on these forms: its slope reads 2.99 here and
# 3.00 on n = 160 * 2^k
_U_ABOVE_ORDER = {("heun", "heavytop-spatial"), ("heun", "heavytop-ext")}


@pytest.mark.parametrize("system_id", ["heavytop-body", "heavytop-spatial", "heavytop-lp",
                                       "heavytop-ext"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_explicit_methods_converge_to_the_lagrange_top_at_their_order(method, system_id):
    # the largest error in u over the coarse grid's times, on n = 20 * 2^k
    # steps to T = 0.05, whose h = 0.0025 resolves the 0.021 s nutation;
    # lie-euler is pre-asymptotic there (1.75 on heavytop-lp), so it runs
    # on n = 160 * 2^k
    system, p, T = get_system(system_id), METHODS[method].p, 0.05
    n0 = 160 if method == "lie-euler" else 20
    hs, errs = [], []
    for k in range(4):
        ts, ys = fixed_integrate(system.action, system.field, METHODS[method].stepper,
                                 system.initial, 0.0, T, n0 * 2**k)
        exact = lagrange_top_u(BRULS_TOP, get_system("heavytop-lp").initial, ts[:: 2**k])
        errs.append(np.abs(_lagrange_u(system_id, ys[:: 2**k]) - exact).max())
        hs.append(T / (n0 * 2**k))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= p - 0.25, slope
    if (method, system_id) not in _U_ABOVE_ORDER:
        assert slope <= p + 0.25, slope


# -- Casimirs under the coadjoint action ------------------------------------------


def test_coadjoint_action_preserves_casimirs_exactly():
    system = get_system("heavytop-lp")
    mu = system.initial
    for _ in range(50):
        g = system.action.exp(0.5 * rng.normal(size=6))
        mu = system.action.act(g, mu)
    assert abs(np.linalg.norm(mu[3:6]) - 9.81) < 1e-12
    assert abs(mu[:3] @ mu[3:6] - system.initial[:3] @ system.initial[3:6]) < 1e-9


# -- pack / unpack -----------------------------------------------------------------


def test_spatial_pack_roundtrip():
    Q, pi = _random_state()
    m = pack_spatial(tuple(Q.ravel().tolist()), pi.tolist())
    Q2, pi2 = unpack_spatial(m)
    np.testing.assert_array_equal(np.reshape(Q2, (3, 3)), Q)
    np.testing.assert_array_equal(pi2, pi)


def test_ext_pack_roundtrip():
    Q, _ = _random_state()
    q = rng.normal(size=3)
    mu = rng.normal(size=6)
    g2, mu2 = unpack_ext(pack_ext((*Q.ravel().tolist(), *q.tolist()), mu.tolist()))
    np.testing.assert_array_equal(np.reshape(g2[:9], (3, 3)), Q)
    np.testing.assert_array_equal(g2[9:], q)
    np.testing.assert_array_equal(mu2, mu)


# -- symplectic family on the cotangent forms --------------------------------------


def test_symplectic_spatial_short_run_conserves_momentum_component():
    system = get_system("heavytop-spatial")
    ts, ys = symplectic_integrate(system, 0.5, 0.002, 100)
    pi0 = system.initial[9:12]
    g0 = BRULS_TOP.g0
    drift = [abs(g0 @ y[9:12] - g0 @ pi0) for y in ys]
    assert max(drift) < 1e-9
    e = [system.energy(y) for y in ys]
    assert abs(e[-1] - e[0]) < 1e-2 * max(1.0, abs(e[0]))


def _without_jacobian(system):
    """The system with the Jacobian taken off its cotangent group, so the
    implicit solve runs the J = I sweep."""
    ct = system.cotangent
    return replace(system, cotangent=replace(ct, group=replace(ct.group, jacobian=None)))


def test_symplectic_ext_newton_matches_fixed_point():
    system = get_system("heavytop-ext")
    _, ys_fp = symplectic_integrate(_without_jacobian(system), 0.5, 0.001, 20)
    _, ys_nw = symplectic_integrate(system, 0.5, 0.001, 20)
    np.testing.assert_allclose(ys_fp[-1], ys_nw[-1], atol=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_newton_agrees_with_fixed_point_on_both_groups(system_id, theta):
    system = get_system(system_id)
    _, ys_fp = symplectic_integrate(_without_jacobian(system), theta, 1e-3, 10)
    _, ys_nw = symplectic_integrate(system, theta, 1e-3, 10)
    np.testing.assert_allclose(ys_nw, ys_fp, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_default_solve_converges_at_the_benchmark_step(system_id, theta):
    # the J = I sweep stops contracting on both tops at theta = 1/2 and
    # h = 0.01; the default solve uses the group's exact Jacobian
    system = get_system(system_id)
    _, ys = symplectic_integrate(system, theta, 0.01, 10)
    assert max(system.invariants["orthogonality"](y) for y in ys) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_keeps_the_body_frame_spin(system_id, theta):
    # the benchmark top is a Lagrange top (I1 = I3, centre of mass on e2),
    # so its spin (Q^T pi) . e2 is conserved; the implicit family keeps it
    # as a discrete Noether integral of the body symmetry
    _, ys = symplectic_integrate(get_system(system_id), theta, 0.01, 500)
    spin = np.einsum("nji,nj->ni", ys[:, :9].reshape(-1, 3, 3), ys[:, 9:12])[:, 1]
    assert np.abs(spin - spin[0]).max() <= 1e-10


def _turn_about_gamma0(S, m):
    """States of the spatial or extended top with Q and pi turned by S; the
    extended top's p and q are body-frame and stay."""
    out = m.copy()
    out[..., :9] = (S @ m[..., :9].reshape(m.shape[:-1] + (3, 3))).reshape(m.shape[:-1] + (9,))
    out[..., 9:12] = m[..., 9:12] @ S.T
    return out


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_family_commutes_with_a_rotation_about_gamma0(system_id, theta):
    # gravity is along Gamma0, so a rotation S about it maps the field to
    # itself; exp, coad and dexp* commute with it, so the run from the
    # turned start is the turned run to rounding (at most 9.5e-14 here)
    system = get_system(system_id)
    start = system.initial.copy()
    start[:9] = (exp_so3([0.3, -0.2, 0.1]) @ start[:9].reshape(3, 3)).ravel()
    S = exp_so3(0.7 * BRULS_TOP.g0 / np.linalg.norm(BRULS_TOP.g0))

    def run(y0):
        return symplectic_integrate(replace(system, initial=y0), theta, 0.01, 200)[1]

    expected = _turn_about_gamma0(S, run(start))
    np.testing.assert_allclose(run(_turn_about_gamma0(S, start)), expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("n_steps", [0, -1, -2])
def test_symplectic_integrate_rejects_fewer_than_one_step(n_steps):
    # as fixed_integrate does; 0 used to return the initial row alone
    with pytest.raises(ValueError, match="n_steps must be at least 1"):
        symplectic_integrate(get_system("heavytop-spatial"), 0.5, 0.01, n_steps)


def test_symplectic_integrate_steps_by_h_itself_from_any_t0():
    # from t0 = 1, (t0 + 70 h - t0) / 70 is h + 1 ulp at h = 0.01; the
    # states must still be those of 70 steps of exactly h
    system = get_system("heavytop-spatial")
    ct = system.cotangent
    ts, ys = symplectic_integrate(system, 0.5, 0.01, 70, t0=1.0)
    g, mu = ct.unpack(system.initial)
    for _ in range(70):
        g, mu = symplectic_step(ct.group, ct.f, g, mu, 0.01, 0.5)
    np.testing.assert_array_equal(ys[-1], ct.pack(g, mu))
    assert ts[0] == 1.0 and ts[-1] == 1.0 + 70 * 0.01


def _count_field_calls(system, h, n_steps):
    """Field evaluations of an implicit midpoint run on ``system``."""
    ct, calls = system.cotangent, []
    f = lambda g, mu: calls.append(None) or ct.f(g, mu)
    symplectic_integrate(replace(system, cotangent=replace(ct, f=f)), 0.5, h, n_steps)
    return len(calls)


def test_symplectic_fixed_point_field_evaluations_per_step():
    # the J = I solve: the predictor G(0), then one evaluation per sweep;
    # 13 per step at theta = 1/2, h = 0.00125
    system = _without_jacobian(get_system("heavytop-ext"))
    assert _count_field_calls(system, 0.00125, 80) == 13 * 80


@pytest.mark.parametrize("system_id, h, n_steps, per_step", [
    ("heavytop-ext", 0.00125, 80, 5),
    # J formed at G(x0), not at x0, saves one evaluation per step here:
    # 8 per step, where J at x0 took 450 in 50 steps
    ("heavytop-spatial", 0.01, 50, 8),
    ("heavytop-ext", 0.01, 50, 8),
])
def test_symplectic_default_field_evaluations_per_step(system_id, h, n_steps, per_step):
    # the exact-Jacobian Newton solve at theta = 1/2
    assert _count_field_calls(get_system(system_id), h, n_steps) == per_step * n_steps


@pytest.mark.parametrize("h, n_steps, bound", [
    # 4.5e-11 with J at G(x0); J formed at the predictor x0 left 7.6e-10
    (0.013, 1538, 1e-10),
    # 9.0e-12 with J at G(x0), where J at x0 left 1.5e-12
    (0.005, 4000, 2e-11),
])
def test_symplectic_ext_gamma0_pi_drift(h, n_steps, bound):
    # the conserved Gamma0.pi over midpoint steps of the extended top, whose
    # drift is the stopping rule's error
    system = get_system("heavytop-ext")
    _, ys = symplectic_integrate(system, 0.5, h, n_steps)
    pg = ys[:, 9:12] @ BRULS_TOP.g0
    assert np.abs(pg - pg[0]).max() <= bound


@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_newton_with_the_exact_jacobian_makes_at_most_10_evaluations(system_id):
    # predictor, its residual and a few simplified Newton iterations
    system = get_system(system_id)
    ct = system.cotangent
    calls = []
    f = lambda g, mu: calls.append(None) or ct.f(g, mu)
    g, mu = ct.unpack(system.initial)
    for _ in range(10):
        before = len(calls)
        g, mu = symplectic_step(ct.group, f, g, mu, 0.01, 0.5)
        assert len(calls) - before <= 10


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 0.3])
@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_exact_jacobian_matches_central_differences(system_id, theta):
    # random steps with |xi| and |theta xi| on both sides of the series
    # cutoff 0.5; tolerance fixed beforehand: 1e-6 of the largest entry
    system = get_system(system_id)
    ct = system.cotangent
    n = 2 * ct.group.algebra_dim
    _, mu_start = ct.unpack(system.initial)
    for angle in (0.3, 0.8, 2.0):
        Q0 = exp_so3(rng.normal(size=3))
        g0 = (*Q0.ravel().tolist(), *([] if n == 6 else rng.normal(size=3).tolist()))
        mu0 = mu_start + rng.normal(size=n // 2)
        x = rng.normal(size=n)
        x[:3] *= angle / np.linalg.norm(x[:3])
        G = _symplectic_residual_map(ct.group, ct.f, g0, mu0, 0.01, theta)
        eps = 1e-6
        expected = np.array([(G(x + e) - G(x - e)) / (2.0 * eps) for e in eps * np.eye(n)]).T
        J = ct.group.jacobian(g0, mu0, 0.01, theta, x)
        np.testing.assert_allclose(J, expected, rtol=0, atol=1e-6 * np.abs(expected).max())


@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_newton_through_a_rebuilt_group_record_gives_the_same_states(system_id):
    # a caller that rebuilds the group with dataclasses.replace, wrapping
    # each map, and wraps the field (as a traced benchmark pass does) keeps
    # the exact Jacobian, so its states equal the driver's bit for bit
    system = get_system(system_id)
    ct = system.cotangent
    w = lambda fn: lambda *args: fn(*args)
    group = replace(ct.group, exp=w(ct.group.exp), coad=w(ct.group.coad),
                    dexp_star=w(ct.group.dexp_star), compose=w(ct.group.compose))
    solve = SolveConfig("newton")
    g, mu = ct.unpack(system.initial)
    ys = [ct.pack(g, mu)]
    for _ in range(20):
        g, mu = symplectic_step(group, lambda g, mu: ct.f(g, mu), g, mu, 0.01, 0.5, solve)
        ys.append(ct.pack(g, mu))
    _, expected = symplectic_integrate(system, 0.5, 0.01, 20, solve=solve)
    np.testing.assert_array_equal(np.array(ys), expected)


@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_newton_with_a_nan_jacobian_does_not_converge(system_id):
    system = get_system(system_id)
    ct = system.cotangent
    n = 2 * ct.group.algebra_dim
    group = replace(ct.group, jacobian=lambda *args: np.full((n, n), np.nan))
    g, mu = ct.unpack(system.initial)
    with pytest.raises(NonConvergenceError):
        symplectic_step(group, ct.f, g, mu, 0.01, 0.5)


@pytest.mark.parametrize("h0", [0.5, 2.0])
def test_adaptive_branch_error_rejects_the_trial_step(h0):
    # rkmk54 trial steps this long leave the exp branch of se(3)
    system = get_system("heavytop-spatial")
    cfg = ControllerConfig(tol=1e-6, alpha=0.2)
    res = adaptive_integrate(
        system.action, system.field, METHODS["rkmk54"].stepper, system.initial,
        0.0, 0.6, h0, cfg,
    )
    first, second = res.step_log[:2]
    assert first.h == min(h0, 0.6)
    assert first.error_estimate == np.inf and not first.accepted
    assert second.h == 0.5 * first.h
    assert res.ts[-1] == pytest.approx(0.6, abs=1e-12)
    assert system.invariants["orthogonality"](res.ys[-1]) < 1e-12


@pytest.mark.parametrize("system_id", ["heavytop-spatial", "heavytop-ext"])
def test_symplectic_newton_keeps_gamma0_pi(system_id):
    # the solve error enters Gamma0.pi directly; returning G(x) at the last
    # Newton iterate instead of the update drifted up to 1.5e-10 here
    system = get_system(system_id, mass=13.875)
    _, ys = symplectic_integrate(system, 0.5, 0.01, 50)
    pg = ys[:, 9:12] @ BRULS_TOP.g0
    assert np.max(np.abs(pg - pg[0])) <= 1e-11
