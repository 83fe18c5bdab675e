"""Every invariant maps an array of states over its leading axes.

The harness evaluates each invariant once on the whole trajectory, so on
a ``(k, d)`` stack of states an invariant must give the ``k`` values it
gives row by row, and a NaN in one row must reach that row's value and
no other.
"""

from __future__ import annotations

import numpy as np
import pytest

from geomint.integrators import METHODS, fixed_integrate
from geomint.systems import SYSTEM_IDS, get_system

ROW = 3  # the row the NaN is written into


def _run_states(system, k=9):
    """The k states of a short rkmk4 run from the system's initial state."""
    _, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk4"].stepper, system.initial, 0.0, 0.08, k - 1
    )
    return ys


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_invariants_of_a_stack_equal_the_row_by_row_values(system_id):
    system = get_system(system_id)
    ys = _run_states(system)
    for name, invariant in system.invariants.items():
        values = invariant(ys)
        assert values.shape == (len(ys),), name
        rows = np.array([invariant(y) for y in ys])
        np.testing.assert_allclose(values, rows, rtol=1e-15, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_a_nan_reaches_its_own_row_only(system_id):
    system = get_system(system_id)
    ys = _run_states(system)
    clean = {name: invariant(ys) for name, invariant in system.invariants.items()}
    others = np.arange(len(ys)) != ROW
    # one entry at a time, then the whole row, which every invariant reads
    for entry in [*range(ys.shape[1]), slice(None)]:
        bad = ys.copy()
        bad[ROW, entry] = np.nan
        for name, invariant in system.invariants.items():
            values = invariant(bad)
            np.testing.assert_array_equal(values[others], clean[name][others], err_msg=name)
            if isinstance(entry, slice):
                assert np.isnan(values[ROW]), name
            else:  # NaN when the invariant reads the entry, unchanged when not
                assert np.isnan(values[ROW]) or values[ROW] == clean[name][ROW], (name, entry)
