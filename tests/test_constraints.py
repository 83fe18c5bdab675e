"""Each constraint invariant reads its own block of the state.

One block of a system's initial state is moved off its manifold by
DELTA, and the invariant that watches that block must report the size
of the move, while it reads at most 1e-15 on the state left as it was.
An invariant that reads the wrong offset, or only some of the links or
rotations, fails here, although it stays small along every run.  A NaN
in a block after the first must also reach the invariant's value.
"""

from __future__ import annotations

import math

import pytest

from geomint.systems import get_system

DELTA = 1e-6


def _tilt_rotation(m, i):
    """R + DELTA e1 e2^T for R stored row by row from i; from R = I the
    error |R^T R - I| is |DELTA (e1 e2^T + e2 e1^T)| = sqrt(2) DELTA to
    first order."""
    m[i + 1] += DELTA
    return math.sqrt(2.0) * DELTA


def _scale_q(m, i):
    """q -> (1 + DELTA) q for the link (q, w) from i: |q| - 1 = DELTA."""
    m[i:i + 3] *= 1.0 + DELTA
    return DELTA


def _tilt_w(m, i):
    """w -> w + DELTA q for the link (q, w) from i: q . w = DELTA."""
    m[i + 3:i + 6] += DELTA * m[i:i + 3]
    return DELTA


CASES = [
    *[(sid, {}, "orthogonality", _tilt_rotation, 0)
      for sid in ("heavytop-body", "heavytop-spatial", "heavytop-ext")],
    *[("quadrotor", {}, "max_orthogonality_error", _tilt_rotation, i) for i in (6, 18)],
    *[("quadrotor", {}, name, move, i)
      for name, move in (("max_q_norm_error", _scale_q), ("max_tangency_error", _tilt_w))
      for i in (30, 36)],
    *[("pendulum", {"n": 3}, name, move, i)
      for name, move in (("max_q_norm_error", _scale_q), ("max_tangency_error", _tilt_w))
      for i in (0, 6, 12)],
]


@pytest.mark.parametrize(
    "system_id, overrides, name, move, start", CASES,
    ids=[f"{c[0]}-{c[2]}-{c[4]}" for c in CASES],
)
def test_constraint_invariant_reports_a_move_of_its_own_block(
    system_id, overrides, name, move, start
):
    system = get_system(system_id, **overrides)
    invariant = system.invariants[name]
    assert invariant(system.initial) <= 1e-15
    state = system.initial.copy()
    expected = move(state, start)
    assert invariant(state) == pytest.approx(expected, rel=0.1)


NAN_CASES = [
    ("pendulum", {"n": 3}, ("max_q_norm_error", "max_tangency_error"), 12),
    ("quadrotor", {}, ("max_orthogonality_error",), 18),
    ("quadrotor", {}, ("max_q_norm_error", "max_tangency_error"), 36),
]


@pytest.mark.parametrize(
    "system_id, overrides, names, start", NAN_CASES, ids=[f"{c[0]}-{c[3]}" for c in NAN_CASES]
)
def test_constraint_invariant_reads_nan_in_a_later_block(system_id, overrides, names, start):
    system = get_system(system_id, **overrides)
    state = system.initial.copy()
    state[start] = math.nan
    for name in names:
        assert math.isnan(system.invariants[name](state)), name
