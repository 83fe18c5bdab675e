from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from _reference import generator
import geomint.systems.pendulum as pendulum_module
from geomint import kernels
from geomint.integrators import METHODS, fixed_integrate
from geomint.kernels import SingularMatrixError, cross, solve_dense
from geomint.lie import exp_so3, hat
from geomint.systems import get_system
from geomint.systems.pendulum import (
    PendulumParams,
    build_pendulum,
    default_initial,
    pendulum_energy,
    pendulum_f,
    pendulum_mass_matrix,
    pendulum_rhs,
)

rng = np.random.default_rng(17)


def pendulum_accelerations(params, q, w):
    """The dense reference: solve R(q) h = g by LU; each h_i is tangent at q_i."""
    return solve_dense(pendulum_mass_matrix(params, q), pendulum_rhs(params, q, w))


def _random_links(n):
    q = rng.normal(size=(n, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w = rng.normal(size=(n, 3))
    w -= np.sum(w * q, axis=1, keepdims=True) * q
    return q, w


# -- parameters ------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(masses=(1.0,), lengths=(1.0, 1.0))
    with pytest.raises(ValueError):
        PendulumParams(masses=(0.0,), lengths=(1.0,))
    # the last two leave a divisor of the closed-form K at 0: L_1^2, m_1 L_1 L_2
    for bad in ({"lengths": (np.nan,)}, {"masses": (np.inf,)}, {"gravity": np.nan},
                {"lengths": (1e-200,)}, {"masses": (5e-324, 1.0), "lengths": (0.5, 0.5)}):
        with pytest.raises(ValueError):
            PendulumParams(**{"masses": (1.0,), "lengths": (1.0,), **bad})


@pytest.mark.parametrize("n", [0, -2])
def test_params_reject_an_empty_chain(n):
    with pytest.raises(ValueError, match="a pendulum needs at least one link"):
        PendulumParams.uniform(n)
    with pytest.raises(ValueError, match="a pendulum needs at least one link"):
        get_system("pendulum", n=n)


def test_tail_mass():
    p = PendulumParams(masses=(1.0, 2.0, 4.0), lengths=(1.0, 1.0, 1.0))
    np.testing.assert_array_equal(p.tail_mass, [7.0, 6.0, 4.0])


# -- mass matrix oracles -----------------------------------------------------------


def test_single_link_mass_matrix_is_scaled_identity():
    p = PendulumParams(masses=(2.0,), lengths=(3.0,))
    q, _ = _random_links(1)
    R = pendulum_mass_matrix(p, q)
    np.testing.assert_allclose(R, 2.0 * 9.0 * np.eye(3), atol=1e-15)


def test_two_link_mass_matrix_blocks():
    p = PendulumParams(masses=(1.5, 2.5), lengths=(1.2, 0.7))
    q, _ = _random_links(2)
    R = pendulum_mass_matrix(p, q)
    np.testing.assert_allclose(R[0:3, 0:3], 4.0 * 1.2**2 * np.eye(3), atol=1e-14)
    np.testing.assert_allclose(R[3:6, 3:6], 2.5 * 0.7**2 * np.eye(3), atol=1e-14)
    off = 2.5 * 1.2 * 0.7 * hat(q[0]).T @ hat(q[1])
    np.testing.assert_allclose(R[0:3, 3:6], off, atol=1e-14)
    np.testing.assert_allclose(R[3:6, 0:3], off.T, atol=1e-14)
    # symmetric and positive definite on random tangent data
    np.testing.assert_allclose(R, R.T, atol=1e-14)
    w = rng.normal(size=6)
    assert w @ (R @ w) > 0


def test_rhs_single_link_oracle():
    p = PendulumParams(masses=(2.0,), lengths=(3.0,), gravity=9.81)
    q, w = _random_links(1)
    g = pendulum_rhs(p, q, w)
    np.testing.assert_allclose(
        g, -2.0 * 9.81 * 3.0 * np.cross(q[0], [0.0, 0.0, 1.0]), atol=1e-13
    )


def test_accelerations_solve_the_block_system():
    p = PendulumParams.uniform(3)
    q, w = _random_links(3)
    h = pendulum_accelerations(p, q, w)
    R = pendulum_mass_matrix(p, q)
    np.testing.assert_allclose(R @ h, pendulum_rhs(p, q, w), atol=1e-11)


def test_field_layout():
    p = PendulumParams.uniform(2)
    q, w = _random_links(2)
    state = np.concatenate([np.concatenate([q[i], w[i]]) for i in range(2)])
    f = pendulum_f(p, state)
    h = pendulum_accelerations(p, q, w).reshape(2, 3)
    for i in range(2):
        np.testing.assert_array_equal(f[6 * i : 6 * i + 3], w[i])
        np.testing.assert_allclose(f[6 * i + 3 : 6 * i + 6], np.cross(q[i], h[i]), atol=1e-13)


# -- dynamics oracles ---------------------------------------------------------------


def test_single_pendulum_matches_planar_angle_equation():
    # q = (sin t?, ...) stays in the x-z plane; theta measured from the
    # downward vertical obeys theta'' = -(g/L) sin(theta)
    L, g = 1.0, 9.81
    system = get_system("pendulum", n=1, length=L)
    s = np.sqrt(2.0) / 2.0
    assert np.allclose(system.initial, [s, 0.0, s, 0.0, 1.0, 0.0])

    T = 2.0
    _, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk4"].stepper, system.initial, 0.0, T, 2000
    )

    # initial angle 3 pi/4 from -e3; omega = e2 turns q toward -theta
    sol = solve_ivp(
        lambda t, y: [y[1], -(g / L) * np.sin(y[0])],
        (0.0, T),
        [3.0 * np.pi / 4.0, -1.0],
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    theta = sol.y[0, -1]
    np.testing.assert_allclose(ys[-1][:3], [np.sin(theta), 0.0, -np.cos(theta)], atol=1e-6)


def test_energy_directional_derivative_vanishes():
    p = PendulumParams.uniform(4)
    system = get_system("pendulum", n=4)
    y = system.initial
    dy = generator(system.action)(system.field(y), y)
    eps = 1e-7
    d = (pendulum_energy(p, y + eps * dy) - pendulum_energy(p, y - eps * dy)) / (2 * eps)
    assert abs(d) < 1e-6


def test_energy_conserved_along_integration():
    system = get_system("pendulum", n=3)
    _, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk54"].stepper, system.initial, 0.0, 2.0, 400
    )
    e = [system.energy(y) for y in ys]
    assert max(abs(ei - e[0]) for ei in e) < 1e-8


def test_manifold_preserved_to_machine_precision():
    system = get_system("pendulum", n=2)
    _, ys = fixed_integrate(
        system.action, system.field, METHODS["cf4"].stepper, system.initial, 0.0, 2.0, 200
    )
    qerr = max(system.invariants["max_q_norm_error"](y) for y in ys)
    terr = max(system.invariants["max_tangency_error"](y) for y in ys)
    assert qerr < 1e-13 and terr < 1e-13


def _turn(R, m):
    """Every link's q and omega of the states m turned by the rotation R."""
    return (m.reshape(-1, 3) @ R.T).reshape(m.shape)


# a 3-link start with each link's default (q, omega) turned out of the x-z plane
_TILTED = np.concatenate([_turn(exp_so3(np.array(axis)), default_initial(1))
                          for axis in ([0.3, 0.0, 0.0], [0.0, -0.4, 0.8], [-0.5, 0.2, 0.4])])


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_explicit_method_commutes_with_a_rotation_about_e3(method):
    # gravity is along e3, so a rotation about e3 maps the field to itself;
    # exp, act and dexpinv commute with it, so the run from the rotated
    # start is the rotated run to rounding (at most 2.9e-13 here), where
    # a ladder holds only to an order
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    system = get_system("pendulum", n=3)

    def run(y0):
        return fixed_integrate(system.action, system.field, METHODS[method].stepper, y0,
                               0.0, 2.0, 200)[1]

    np.testing.assert_allclose(run(_turn(R, _TILTED)), _turn(R, run(_TILTED)), rtol=0, atol=1e-12)


def _angular_momentum_z(params, m):
    """L_z = sum_k m_k (x_k x x_k')_3 over the states m, where x_k, the
    position of bob k, sums L_i q_i down the chain and x_k' sums
    L_i omega_i x q_i."""
    links = m.reshape(m.shape[:-1] + (params.n, 6))
    q, w = links[..., :3], links[..., 3:]
    lengths = np.asarray(params.lengths)[:, None]
    x = np.cumsum(lengths * q, axis=-2)
    v = np.cumsum(lengths * np.cross(w, q), axis=-2)
    return np.sum(np.asarray(params.masses) * np.cross(x, v)[..., 2], axis=-1)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_explicit_method_keeps_the_angular_momentum_about_e3_to_its_order(method):
    # gravity is along e3, so L_z is a Noether integral of every chain;
    # the largest drift over T = 2 falls from n = 200 to 400 steps at
    # the method's order (at least p - 0.25 on the log2 ratio), and
    # stays above rounding on the finest rung (4e-10 for rkmk54)
    params = PendulumParams.uniform(3)
    system = build_pendulum(params)
    s = np.sqrt(0.5)
    y0 = default_initial(3).reshape(3, 6)
    for k, c in enumerate((0.4, -0.3, 0.6)):
        y0[k, 3:] = (-c * s, 1.0 + 0.2 * k, c * s)  # tangent: q_k . omega_k = 0
    y0 = y0.ravel()
    assert abs(_angular_momentum_z(params, y0) - 1.909) < 1e-3
    drift = []
    for n in (200, 400):
        _, ys = fixed_integrate(system.action, system.field, METHODS[method].stepper, y0,
                                0.0, 2.0, n)
        lz = _angular_momentum_z(params, ys)
        drift.append(np.abs(lz - lz[0]).max())
    assert drift[1] > 1e-12
    assert np.log2(drift[0] / drift[1]) >= METHODS[method].p - 0.25


def test_default_initial_tiles_links():
    m = default_initial(3)
    assert m.shape == (18,)
    np.testing.assert_array_equal(m[:6], m[6:12])


# -- per-link loop references ------------------------------------------------------
# The loop forms the array assembly replaced.  The array forms sum in
# another order, so they agree to rounding, not bit for bit.

_E3 = np.array([0.0, 0.0, 1.0])


def _blk(i):
    return slice(3 * i, 3 * i + 3)


def _ref_mass_matrix(params, q):
    n = params.n
    tails = params.tail_mass
    L = np.asarray(params.lengths)
    R = np.zeros((3 * n, 3 * n))
    hats = [hat(q[i]) for i in range(n)]
    for i in range(n):
        R[_blk(i), _blk(i)] = tails[i] * L[i] ** 2 * np.eye(3)
        for j in range(i + 1, n):
            block = tails[j] * L[i] * L[j] * (hats[i].T @ hats[j])
            R[_blk(i), _blk(j)] = block
            R[_blk(j), _blk(i)] = block.T
    return R


def _ref_rhs(params, q, w):
    n = params.n
    tails = params.tail_mass
    L = np.asarray(params.lengths)
    out = np.empty((n, 3))
    for i in range(n):
        gi = -tails[i] * params.gravity * L[i] * cross(q[i], _E3)
        for j in range(n):
            if j != i:
                mij = tails[max(i, j)] * L[i] * L[j]
                gi = gi + mij * (w[j] @ w[j]) * cross(q[i], q[j])
        out[i] = gi
    return out.ravel()


def _ref_f(params, q, w):
    n = params.n
    h = solve_dense(_ref_mass_matrix(params, q), _ref_rhs(params, q, w)).reshape(n, 3)
    out = np.empty((n, 6))
    for i in range(n):
        out[i, :3] = w[i]
        out[i, 3:] = cross(q[i], h[i])
    return out.ravel()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_array_assembly_matches_loop_reference(n):
    # unequal masses and lengths, so a wrong tail-mass index shows
    p = PendulumParams(
        masses=tuple(rng.uniform(0.5, 3.0, n)), lengths=tuple(rng.uniform(0.4, 1.6, n))
    )
    q, w = _random_links(n)
    state = np.hstack([q, w]).ravel()
    for got, ref in (
        (pendulum_mass_matrix(p, q), _ref_mass_matrix(p, q)),
        (pendulum_rhs(p, q, w), _ref_rhs(p, q, w)),
        (pendulum_f(p, state), _ref_f(p, q, w)),
    ):
        assert got.shape == ref.shape
        tol = 1e-13 * max(1.0, np.max(np.abs(ref)))
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol)


# -- the array forms before the constants were built once --------------------------
# The same whole-array expressions, recomputing every parameter-only
# array on each call.  The built system must equal pendulum_f and
# pendulum_energy bit for bit; these solve the same equations in O(N),
# so they agree with the array forms to rounding.


def _ref_array_f_and_energy(params, state):
    n = params.n
    L = np.asarray(params.lengths)
    links = np.arange(n)
    coupling = params.tail_mass[np.maximum.outer(links, links)] * np.outer(L, L)
    q, w = state.reshape(n, 6)[:, :3], state.reshape(n, 6)[:, 3:]
    blocks = (q @ q.T)[:, None, :, None] * np.eye(3)[None, :, None, :]
    blocks -= q.T[None, :, :, None] * q[:, None, None, :]
    blocks[links, :, links, :] = np.eye(3)
    R = (coupling[:, None, :, None] * blocks).reshape(3 * n, 3 * n)
    off = coupling.copy()
    np.fill_diagonal(off, 0.0)
    weight = params.tail_mass * params.gravity * L
    pull = (off * np.sum(w * w, axis=1)) @ q - np.outer(weight, _E3)
    h = solve_dense(R, cross(q.T, pull.T).T.ravel()).reshape(n, 3)
    f = np.hstack([w, cross(q.T, h.T).T]).ravel()
    wflat = w.ravel()
    energy = 0.5 * float(wflat @ (R @ wflat)) + float(np.sum(weight * q[:, 2]))
    return f, energy


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_built_field_and_energy_equal_the_functions_bit_for_bit(n):
    p = PendulumParams(
        masses=tuple(rng.uniform(0.5, 3.0, n)), lengths=tuple(rng.uniform(0.4, 1.6, n))
    )
    system = build_pendulum(p)
    for _ in range(5):
        q, w = _random_links(n)
        state = np.hstack([q, w]).ravel()
        f, energy = _ref_array_f_and_energy(p, state)
        np.testing.assert_array_equal(system.field(state), pendulum_f(p, state))
        assert system.energy(state) == pendulum_energy(p, state)
        np.testing.assert_allclose(pendulum_f(p, state), f, rtol=0, atol=1e-13 * np.max(np.abs(f)))
        # |potential| <= sum_i weight_i, so |kinetic| + |potential| <= scale
        scale = abs(energy) + 2.0 * float(np.sum(p._weight))
        assert abs(pendulum_energy(p, state) - energy) <= 1e-13 * scale


# -- the O(N) field and energy against the dense block system ---------------------


def _unequal_params(n):
    """Unequal masses and lengths, so that a wrong index into K shows."""
    return PendulumParams(
        masses=tuple(rng.uniform(0.5, 3.0, n)), lengths=tuple(rng.uniform(0.4, 1.6, n))
    )


@pytest.mark.parametrize(
    "n, tol", [(1, 1e-13), (2, 1e-13), (3, 1e-13), (6, 1e-13), (10, 1e-13), (40, 1e-12)]
)
def test_field_solves_the_dense_block_system(n, tol):
    p = _unequal_params(n)
    for _ in range(20):
        q, w = _random_links(n)
        u = pendulum_f(p, np.hstack([q, w]).ravel()).reshape(n, 6)[:, 3:]
        h = np.cross(u, q).ravel()  # h_i = u_i x q_i, tangent at q_i
        R, g = pendulum_mass_matrix(p, q), pendulum_rhs(p, q, w)
        scale = np.linalg.norm(R, 2) * np.linalg.norm(h) + np.linalg.norm(g)
        assert np.linalg.norm(R @ h - g) <= tol * scale


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_closed_form_inverse_coupling(n):
    p = _unequal_params(n)
    diag, off = p._inverse_coupling
    assert len(off) == n + 1 and off[0] == off[-1] == 0.0
    K = np.diag(diag) + np.diag(off[1:-1], 1) + np.diag(off[1:-1], -1)
    ref = np.linalg.inv(p._coupling)
    np.testing.assert_allclose(K, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    # the weights are M applied to g / L_1 at the first link
    top = p.gravity / p.lengths[0]
    np.testing.assert_allclose(p._inverse_weight, [top] + [0.0] * (n - 1), rtol=0, atol=1e-13 * top)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 40])
def test_energy_equals_the_dense_quadratic_form(n):
    p = _unequal_params(n)
    for _ in range(20):
        q, w = _random_links(n)
        wflat = w.ravel()
        kinetic = 0.5 * float(wflat @ (pendulum_mass_matrix(p, q) @ wflat))
        potential = float(np.sum(p._weight * q[:, 2]))
        energy = pendulum_energy(p, np.hstack([q, w]).ravel())
        assert abs(energy - (kinetic + potential)) <= 1e-14 * (abs(kinetic) + abs(potential))


def _loop_energy(params, state):
    """The energy as one pass down the chain, link by link on floats."""
    vx = vy = vz = kinetic = potential = 0.0
    links = state.reshape(params.n, 6).tolist()
    for m, L, g, (x, y, z, a, b, c) in zip(
        params.masses, params.lengths, params._weight.tolist(), links
    ):
        vx += L * (y * c - z * b)
        vy += L * (z * a - x * c)
        vz += L * (x * b - y * a)
        kinetic += m * (vx * vx + vy * vy + vz * vz)
        potential += g * z
    return 0.5 * kinetic + potential


@pytest.mark.parametrize("n", [1, 3, 10, 40])
def test_energy_of_a_stack_equals_the_per_link_loop_bit_for_bit(n):
    p = _unequal_params(n)
    states = np.array([np.hstack(_random_links(n)).ravel() for _ in range(5)])
    np.testing.assert_array_equal(pendulum_energy(p, states), [_loop_energy(p, s) for s in states])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [4, 14])  # omega_1 and q_3 of a 3-link chain
def test_field_rejects_a_non_finite_state(bad, entry):
    state = default_initial(3)
    state[entry] = bad
    with pytest.raises(SingularMatrixError, match="not finite"):
        pendulum_f(_unequal_params(3), state)


def test_field_rejects_a_zero_link_direction():
    # the multiplier system has a zero row and column for a zero q_i
    state = default_initial(3)
    state[6:9] = 0.0
    with pytest.raises(SingularMatrixError, match="pivot"):
        pendulum_f(PendulumParams.uniform(3), state)


def test_field_and_energy_reject_a_state_of_the_wrong_length():
    p = PendulumParams.uniform(3)
    for state in (default_initial(2), default_initial(4), np.append(default_initial(3), 0.0)):
        for fn in (pendulum_f, pendulum_energy):
            with pytest.raises(ValueError, match="3-link pendulum state has 18 entries"):
                fn(p, state)


def test_field_runs_without_the_dense_solve(monkeypatch):
    def refuse(A, b):
        raise AssertionError("the pendulum field called solve_dense")

    monkeypatch.setattr(kernels, "solve_dense", refuse)
    monkeypatch.setattr(pendulum_module, "solve_dense", refuse, raising=False)
    p = _unequal_params(6)
    q, w = _random_links(6)
    state = np.hstack([q, w]).ravel()
    assert np.isfinite(build_pendulum(p).field(state)).all()
