"""Classical order of every tableau, read off the rooted trees.

On a commutative group an RKMK step is the step of its Runge--Kutta
tableau, and a commutator-free step is the step of the tableau whose
rows are its exponentials' coefficients summed along the chain from y to
each point.  A method of order p must have a tableau of classical order
p: every rooted tree t with at most p vertices meets Butcher's condition
b . Phi(t) = 1 / gamma(t), and some tree with p + 1 vertices fails it.
The trees go up to six vertices, one more than the highest order
registered.  ``rkmk4-2c`` is left out: it is written as a function, not
as a tableau.
"""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from geomint.integrators import METHODS, CFScheme, Tableau

MAX_VERTICES = 6


def _grow(tree):
    """Every tree made from ``tree`` by one new leaf.  A tree is the sorted
    tuple of the subtrees at its root, so equal trees are equal tuples."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _grow(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


TREES = [{()}]  # TREES[n - 1] holds the trees with n vertices
for _ in range(MAX_VERTICES - 1):
    TREES.append({grown for tree in TREES[-1] for grown in _grow(tree)})


def _size(tree):
    return 1 + sum(map(_size, tree))


def _density(tree):
    return _size(tree) * prod(map(_density, tree))


def _stage_weights(tree, A):
    """Phi_i(t) = prod over the subtrees u at the root of sum_j a_ij Phi_j(u)."""
    return prod((A @ _stage_weights(child, A) for child in tree), start=np.ones(len(A)))


def classical_order(A, b):
    for n, trees in enumerate(TREES, 1):
        if any(abs(b @ _stage_weights(t, A) - 1.0 / _density(t)) > 1e-12 for t in trees):
            return n - 1
    return MAX_VERTICES


def _tableau(name):
    """(A, b, b_hat) of the method's tableau, or of the tableau its
    commutator-free scheme collapses to; b_hat is None without a pair."""
    t = scheme = METHODS[name].stepper
    if isinstance(t, Tableau):
        A = np.zeros((t.stages, t.stages))
        for i, row in enumerate(t.a):
            A[i, :len(row)] = row
        return A, np.array(t.b), None if t.b_hat is None else np.array(t.b_hat)
    s = len(scheme.stages)
    sums = [np.zeros(s)]  # the coefficients summed from y to each point
    for base, row in scheme.points + scheme.aux:
        sums.append(sums[base] + np.pad(row, (0, s - len(row))))
    A = np.array([sums[k] for k in scheme.stages])
    return A, sums[len(scheme.points)], sums[-1] if scheme.aux else None


def test_the_trees_up_to_six_vertices():
    assert [len(trees) for trees in TREES] == [1, 1, 2, 4, 9, 20]


@pytest.mark.parametrize(
    "name",
    [name for name, info in METHODS.items() if isinstance(info.stepper, (Tableau, CFScheme))],
)
def test_classical_order_is_the_registered_order(name):
    A, b, b_hat = _tableau(name)
    info = METHODS[name]
    assert classical_order(A, b) == info.p
    assert (b_hat is None) == (info.p_hat is None)
    if b_hat is not None:
        assert classical_order(A, b_hat) == info.p_hat
