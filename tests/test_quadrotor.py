from __future__ import annotations

import numpy as np
import pytest

from _reference import generator
from geomint.integrators import METHODS, fixed_integrate
from geomint.kernels import SingularMatrixError, solve_dense
from geomint.lie import hat
from geomint.systems import get_system
from geomint.systems.quadrotor import (
    QuadrotorParams,
    build_quadrotor,
    default_initial,
    quadrotor_assemble,
    quadrotor_energy,
    quadrotor_f,
    zero_controls,
)

rng = np.random.default_rng(23)
PARAMS = QuadrotorParams()
ACTION = get_system("quadrotor").action
# where zdot = [ydot, vdot, Omega1', Omega2', omega1', omega2'] sits in
# the time derivative of the flat state
_Z = np.r_[0:6, 15:18, 27:30, 33:36, 39:42]


def constant_controls(u1, u2, m1, m2):
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    return lambda t, state: (u1, u2, m1, m2)


def quadrotor_ambient_rhs(params, controls, t, state):
    """Reference time derivative of the flat state: kinematics, with the
    accelerations from a dense solve of the assembled block system."""
    rhs = np.empty(42)
    rhs[_Z] = solve_dense(*quadrotor_assemble(params, controls, t, state))
    for R, O, q, w in ((6, 15, 30, 33), (18, 27, 36, 39)):
        rhs[R:R + 9] = (state[R:R + 9].reshape(3, 3) @ hat(state[O:O + 3])).ravel()
        rhs[q:q + 3] = np.cross(state[w:w + 3], state[q:q + 3])
    return rhs


def _field_zdot(params, controls, state):
    """zdot as the field's generator gives it."""
    return generator(ACTION)(quadrotor_f(params, controls, 0.0, state), state)[_Z]


def test_params_validation():
    with pytest.raises(ValueError):
        QuadrotorParams(payload_mass=-1.0)
    with pytest.raises(ValueError):
        QuadrotorParams(inertia1=(0.0, 0.1, 0.1))
    for bad in ({"payload_mass": np.nan}, {"lengths": (1.0, np.nan)}, {"gravity": np.inf},
                {"inertia2": (0.02, np.nan, 0.04)}):
        with pytest.raises(ValueError):
            QuadrotorParams(**bad)


def test_block_system_structure():
    state = default_initial()
    A, h = quadrotor_assemble(PARAMS, zero_controls, 0.0, state)
    assert A.shape == (18, 18) and h.shape == (18,)
    np.testing.assert_array_equal(A[0:3, 0:3], np.eye(3))
    q1 = state[30:33]
    m1, m2 = PARAMS.masses
    mq = (
        PARAMS.payload_mass * np.eye(3)
        + m1 * np.outer(q1, q1)
        + m2 * np.outer(state[36:39], state[36:39])
    )
    np.testing.assert_allclose(A[3:6, 3:6], mq, atol=1e-14)
    np.testing.assert_allclose(A[6:9, 6:9], np.diag(PARAMS.inertia1), atol=1e-15)
    # velocity block of the link rows: -(1/L) hat(q)
    np.testing.assert_allclose(
        A[12:15, 3:6] @ np.ones(3), -np.cross(q1, np.ones(3)) / PARAMS.lengths[0],
        atol=1e-14,
    )
    # first block row says ydot = v
    np.testing.assert_array_equal(h[:3], state[3:6])


def test_zdot_satisfies_block_system():
    state = default_initial()
    A, h = quadrotor_assemble(PARAMS, zero_controls, 0.0, state)
    zd = _field_zdot(PARAMS, zero_controls, state)
    np.testing.assert_allclose(A @ zd, h, atol=1e-11)


def test_block_system_invertible_at_random_states():
    for _ in range(5):
        state = default_initial()
        state[3:6] += 0.3 * rng.normal(size=3)
        for off in (30, 36):
            q = rng.normal(size=3)
            state[off : off + 3] = q / np.linalg.norm(q)
        A, h = quadrotor_assemble(PARAMS, zero_controls, 0.0, state)
        solve_dense(A, h)  # must not raise SingularMatrixError


def _random_setup():
    """Unequal masses, lengths and inertias, a random state with unit
    q_i, and non-zero constant controls."""
    params = QuadrotorParams(
        payload_mass=rng.uniform(0.5, 2.0),
        masses=tuple(rng.uniform(0.5, 3.0, 2)),
        lengths=tuple(rng.uniform(0.3, 2.0, 2)),
        inertia1=tuple(rng.uniform(0.01, 0.1, 3)),
        inertia2=tuple(rng.uniform(0.01, 0.1, 3)),
    )
    controls = constant_controls(*(5.0 * rng.normal(size=(4, 3))))
    state = rng.normal(size=42)
    for off in (30, 36):
        state[off : off + 3] /= np.linalg.norm(state[off : off + 3])
    return params, controls, state


def test_block_elimination_matches_the_assembled_solve():
    for _ in range(200):
        params, controls, state = _random_setup()
        ref = solve_dense(*quadrotor_assemble(params, controls, 0.0, state))
        got = _field_zdot(params, controls, state)
        assert got.shape == (18,)
        tol = 1e-13 * np.max(np.abs(ref))
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 4, 10, 16, 22, 28, 31, 34, 38, 41])
def test_non_finite_state_raises(bad, index):
    # index 0 is the payload position, which the field does not read
    params, controls, state = _random_setup()
    state[index] = bad
    with pytest.raises(SingularMatrixError):
        quadrotor_f(params, controls, 0.0, state)


def test_thrust_decomposition_identities():
    q = rng.normal(size=3)
    q /= np.linalg.norm(q)
    u = rng.normal(size=3)
    u_par = np.outer(q, q) @ u
    u_perp = u - u_par
    np.testing.assert_allclose(u_par + u_perp, u, atol=1e-15)
    np.testing.assert_allclose(np.cross(q, u_par), np.zeros(3), atol=1e-15)
    assert abs(q @ u_perp) < 1e-14


def test_field_matches_ambient_rhs_through_generator():
    state = default_initial()
    dm = generator(ACTION)(quadrotor_f(PARAMS, zero_controls, 0.0, state), state)
    np.testing.assert_allclose(
        dm, quadrotor_ambient_rhs(PARAMS, zero_controls, 0.0, state), atol=1e-11
    )


def test_static_equilibrium_under_balancing_thrust():
    # vertical links carrying the whole weight: parallel thrusts cancel
    # gravity exactly, so the assembled field vanishes
    g = PARAMS.gravity
    my = PARAMS.payload_mass
    m1, m2 = PARAMS.masses
    state = np.zeros(42)
    state[6:15] = np.eye(3).ravel()
    state[18:27] = np.eye(3).ravel()
    state[30:33] = (0.0, 0.0, 1.0)
    state[36:39] = (0.0, 0.0, 1.0)
    u1 = np.array([0.0, 0.0, -g * (my / 2 + m1)])
    u2 = np.array([0.0, 0.0, -g * (my / 2 + m2)])
    controls = constant_controls(u1, u2, np.zeros(3), np.zeros(3))
    f = quadrotor_f(PARAMS, controls, 0.0, state)
    np.testing.assert_allclose(f, np.zeros(30), atol=1e-12)


def test_energy_directional_derivative_vanishes_without_controls():
    state = default_initial()
    system = get_system("quadrotor")
    dy = generator(system.action)(system.field(state), state)
    eps = 1e-7
    d = (quadrotor_energy(PARAMS, state + eps * dy) - quadrotor_energy(PARAMS, state - eps * dy)) / (
        2 * eps
    )
    assert abs(d) < 1e-5


def test_zero_control_energy_conserved_along_integration():
    system = get_system("quadrotor")
    _, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk54"].stepper, system.initial, 0.0, 1.0, 200
    )
    e = [system.energy(y) for y in ys]
    assert max(abs(ei - e[0]) for ei in e) < 1e-9


def test_integration_preserves_all_constraints():
    system = get_system("quadrotor")
    _, ys = fixed_integrate(
        system.action, system.field, METHODS["cf4"].stepper, system.initial, 0.0, 1.0, 100
    )
    for name in ("max_q_norm_error", "max_tangency_error", "max_orthogonality_error"):
        assert max(system.invariants[name](y) for y in ys) < 1e-13


def test_controls_interface_receives_time_and_state():
    seen = []

    def probe(t, state):
        seen.append(t)
        z = np.zeros(3)
        return z, z, z, z

    system = build_quadrotor(PARAMS, controls=probe)
    system.field(default_initial())
    assert seen == [0.0]
