"""The float helpers shared by the other modules, and a dense inverse and
solve, on numpy alone.  Arrays are plain float64 numpy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SingularMatrixError", "cross", "inverse", "solve_dense"]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix's condition number ``||A||_F ||A^-1||_F`` is not
    below ``1e12``, or when the matrix, or the state a system solves at, is
    not finite."""


def cross(a, b):
    """Cross product of two 3-vectors (faster than np.cross for scalars);
    on ``(3, ...)`` arrays it crosses along the first axis."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _dot(a, b):
    """a . b over the last axis of arrays of vectors, each row rounded as
    the 1-D ``a @ b`` is (one BLAS dot), which ``np.sum(a * b, -1)`` is not;
    a scalar for two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


def _cross(u, v):
    """u x v of two 3-vectors as three floats."""
    x, y, z = u
    a, b, c = v
    return y * c - z * b, z * a - x * c, x * b - y * a


def _product(a, q):
    """A Q for 3x3 matrices given as nine floats row by row, as nine floats."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = a
    q1, q2, q3, q4, q5, q6, q7, q8, q9 = q
    return (
        a1 * q1 + a2 * q4 + a3 * q7, a1 * q2 + a2 * q5 + a3 * q8, a1 * q3 + a2 * q6 + a3 * q9,
        b1 * q1 + b2 * q4 + b3 * q7, b1 * q2 + b2 * q5 + b3 * q8, b1 * q3 + b2 * q6 + b3 * q9,
        c1 * q1 + c2 * q4 + c3 * q7, c1 * q2 + c2 * q5 + c3 * q8, c1 * q3 + c2 * q6 + c3 * q9,
    )


def _transpose(a):
    """A^T for A given as nine floats row by row, as nine floats."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = a
    return a1, b1, c1, a2, b2, c2, a3, b3, c3


def _times_hat(a, x, y, z):
    """A hat(v) for A given as nine floats row by row and v = (x, y, z), as
    nine floats: row i is row i of A crossed with v."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = a
    return (
        a2 * z - a3 * y, a3 * x - a1 * z, a1 * y - a2 * x,
        b2 * z - b3 * y, b3 * x - b1 * z, b1 * y - b2 * x,
        c2 * z - c3 * y, c3 * x - c1 * z, c1 * y - c2 * x,
    )


def _times(a, v1, v2, v3):
    """A v as three floats, for A given as nine floats row by row."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = a
    return a1 * v1 + a2 * v2 + a3 * v3, b1 * v1 + b2 * v2 + b3 * v3, c1 * v1 + c2 * v2 + c3 * v3


def _conditioned(A, invert):
    """``invert(A)``, whose last ``len(A)`` columns are ``A^-1``, under the rule of solve_dense."""
    try:
        X = invert(A)
        cond = np.linalg.norm(A) * np.linalg.norm(X[:, -len(A):])
    except np.linalg.LinAlgError:
        cond = np.inf
    # written so that a NaN condition number fails it
    if not cond < 1e12:
        raise SingularMatrixError(f"matrix numerically singular or not finite: "
                                  f"condition number {cond:.3e}")
    return X


def inverse(A):
    """``A^-1`` by numpy's LU inverse; raises as :func:`solve_dense` does."""
    return _conditioned(A, np.linalg.inv)


def solve_dense(A, b):
    """Solve ``A x = b`` for a square float ndarray ``A`` by numpy's LU
    solve, solving for ``A^-1`` on the same factors.  Raises
    :class:`SingularMatrixError` unless ``A`` is finite with
    ``||A||_F ||A^-1||_F < 1e12``.  For ``n <= 12`` this condition-number
    rule rejects every matrix whose smallest LU pivot is below
    ``1e-13 ||A||_F``; it also rejects some with no small pivot, more so
    as ``n`` grows."""
    X = _conditioned(A, lambda A: np.linalg.solve(A, np.column_stack((b, np.eye(len(A))))))
    return X[:, : -len(A)].reshape(np.shape(b))
