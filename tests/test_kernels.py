from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import lu_factor, lu_solve

from geomint.kernels import SingularMatrixError, cross, solve_dense

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


def test_solve_dense_matches_numpy():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(9, 9)) + 9 * np.eye(9)
    b = rng.normal(size=9)
    np.testing.assert_allclose(solve_dense(A, b), np.linalg.solve(A, b), rtol=1e-12)


def _wrapped_lu_solve(A, b):
    """The scipy-wrapper body solve_dense had before it called LAPACK directly."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(A, check_finite=False)
    return lu_solve((lu, piv), b, check_finite=False)


@pytest.mark.parametrize("n", [3, 9, 12, 18, 24])
def test_solve_dense_equals_the_scipy_wrappers_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        A = rng.normal(size=(n, n)) + np.sqrt(n) * np.eye(n)
        for b in (rng.normal(size=n), np.eye(n), rng.normal(size=(n, 2))):
            got, ref = solve_dense(A, b), _wrapped_lu_solve(A, b)
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)


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
