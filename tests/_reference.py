"""Reference maps the tests check the closed forms against.

The truncated Bernoulli series of dexpinv is exact only in the limit, so
no integrator uses it; the tests compare every action's closed-form
``dexpinv`` with it.  This module holds no random state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from geomint.lie import se3_bracket, so3_bracket


def ad_bracket(x, y):
    """Bracket dispatched on dimension: 3 -> so(3), 6 -> se(3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"algebra mismatch: {x.shape} vs {y.shape}")
    if x.shape == (3,):
        return so3_bracket(x, y)
    if x.shape == (6,):
        return se3_bracket(x, y)
    raise ValueError(f"no bracket for dimension {x.shape}")


# Bernoulli numbers B_k / k! for the dexpinv expansion, k = 0..7.
_BERNOULLI_COEFFS = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0)


def dexpinv_series(u, v, order: int, bracket: Callable = ad_bracket):
    """Truncated dexpinv expansion: sum_{k<order} (B_k/k!) ad_u^k v.

    ``order = 1`` returns ``v``; the cap is 8 (coefficients embedded up
    to the seventh iterated bracket).
    """
    if not 1 <= order <= 8:
        raise ValueError(f"unsupported truncation order {order} (must be 1..8)")
    out = np.asarray(v, dtype=float).copy()
    w = v
    for k in range(1, order):
        w = bracket(u, w)
        c = _BERNOULLI_COEFFS[k]
        if c != 0.0:
            out = out + c * w
    return out
