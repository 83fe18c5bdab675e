from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geomint.kernels import SingularMatrixError, cross, inverse, solve_dense

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


@given(vec3, vec3)
def test_cross_matches_numpy(a, b):
    np.testing.assert_allclose(cross(a, b), np.cross(a, b), atol=1e-10)


@given(vec3, vec3)
def test_cross_antisymmetric_and_orthogonal(a, b):
    c = cross(a, b)
    np.testing.assert_allclose(c, -cross(b, a), atol=0)
    assert abs(c @ a) <= 1e-9 * (1 + np.linalg.norm(a) ** 2 * np.linalg.norm(b))


def test_cross_basis():
    e = np.eye(3)
    np.testing.assert_array_equal(cross(e[0], e[1]), e[2])
    np.testing.assert_array_equal(cross(e[1], e[2]), e[0])
    np.testing.assert_array_equal(cross(e[2], e[0]), e[1])


def _first_system():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(9, 9)) + 9 * np.eye(9)
    return [(A, rng.normal(size=9))]


def _random_systems(n):
    """20 seeded n x n matrices, each with a vector, I and an n x 2 block."""
    rng = np.random.default_rng(n)
    systems = []
    for _ in range(20):
        A = rng.normal(size=(n, n)) + np.sqrt(n) * np.eye(n)
        systems += [(A, b) for b in (rng.normal(size=n), np.eye(n), rng.normal(size=(n, 2)))]
    return systems


@pytest.mark.parametrize(
    "systems",
    [_first_system(), *map(_random_systems, [3, 9, 12, 18, 24])],
    ids=["9x9-seed3", "n3", "n9", "n12", "n18", "n24"],
)
def test_solve_dense_matches_numpy(systems):
    for A, b in systems:
        got = solve_dense(A, b)
        assert got.shape == b.shape
        np.testing.assert_allclose(got, np.linalg.solve(A, b), rtol=1e-12)


def test_solve_dense_singular_raises():
    A = np.zeros((4, 4))
    A[0, 0] = 1.0
    with pytest.raises(SingularMatrixError):
        solve_dense(A, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_dense_non_finite_raises(bad):
    A = np.eye(4)
    A[1, 2] = bad
    with pytest.raises(SingularMatrixError):
        solve_dense(A, np.ones(4))


def _near_singular_12():
    # the last row is another row plus noise at 1e-14; LU with partial
    # pivoting leaves a smallest pivot below 1e-13 ||A||_F
    rng = np.random.default_rng(12)
    A = rng.normal(size=(12, 12))
    A[-1] = A[3] + 1e-14 * rng.normal(size=12)
    return A


@pytest.mark.parametrize(
    "A", [np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), _near_singular_12()], ids=["2x2", "12x12"]
)
def test_solve_dense_near_singular_raises(A):
    with pytest.raises(SingularMatrixError, match="condition number"):
        solve_dense(A, np.ones(len(A)))


@pytest.mark.parametrize("n", [6, 12])
def test_inverse_is_the_identity_columns_of_one_lu_solve(n):
    # numpy's inverse is the LU solve against I, bit for bit, on J-like matrices
    rng = np.random.default_rng(n)
    for _ in range(50):
        A = np.eye(n) - 0.1 * rng.normal(size=(n, n))
        np.testing.assert_array_equal(inverse(A), np.linalg.solve(A, np.eye(n)))
        np.testing.assert_array_equal(inverse(A), solve_dense(A, np.eye(n)))


@pytest.mark.parametrize(
    "A",
    [np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([1.0, np.nan, 1.0, 1.0]),
     np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), _near_singular_12()],
    ids=["singular", "nan", "2x2", "12x12"],
)
def test_inverse_refuses_what_solve_dense_refuses(A):
    for solve in (inverse, lambda A: solve_dense(A, np.ones(len(A)))):
        with pytest.raises(SingularMatrixError, match="condition number"):
            solve(A)
