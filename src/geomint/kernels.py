"""Small dense linear algebra shared by every other module.

Vectors and matrices are plain float64 numpy arrays: ``Vec3`` is shape
``(3,)``, ``Mat3`` is shape ``(3, 3)``.  The multibody systems assemble
their block matrices as dense ``(3n, 3n)`` arrays by slices.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import lu_factor, lu_solve

__all__ = ["SingularMatrixError", "cross", "solve_dense"]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a pivot falls below the relative singularity threshold
    or the matrix is not finite."""


def cross(a, b):
    """Cross product of two 3-vectors (faster than np.cross for scalars);
    on ``(3, n)`` arrays it crosses column by column."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def solve_dense(A, b):
    """Solve ``A x = b`` for a square float ndarray ``A`` by LU with
    partial pivoting.  Raises :class:`SingularMatrixError` when ``A`` is
    zero or not finite, or a pivot magnitude drops below ``1e-13 * ||A||``.
    """
    scale = np.linalg.norm(A)
    with warnings.catch_warnings():
        # the pivot check below is the real diagnostic
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    # written so that a NaN norm or pivot fails it
    if not (0.0 < scale < np.inf and np.min(pivots) >= 1e-13 * scale):
        raise SingularMatrixError(
            f"matrix numerically singular or not finite: "
            f"min pivot {np.min(pivots):.3e}, norm {scale:.3e}"
        )
    return lu_solve((lu, piv), b, check_finite=False)
