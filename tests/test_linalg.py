"""Exact linear algebra unit tests with hand-checked oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ehrkit.errors import InputError
from ehrkit.linalg import (
    dot,
    lattice_normalized_volume,
    nullspace,
    primitive,
    rank,
    row_reduce,
    simplex_solve,
    snf_diagonal,
    solve,
)


def test_row_reduce_and_rank():
    rref, pivots = row_reduce([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert pivots == [0, 1]
    assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    # rref rows satisfy the pivot structure exactly
    assert rref[0][0] == 1 and rref[1][1] == 1


def test_solve_consistent_and_inconsistent():
    x = solve([[1, 1], [1, -1]], [4, 0])
    assert x == (2, 2)
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    under = solve([[1, 1, 0]], [5])
    assert under is not None and sum(under[:2]) == 5


def test_nullspace_orthogonality():
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert dot([1, 1, 1], v) == 0
    assert nullspace([], ncols=2) == [(1, 0), (0, 1)]


def test_simplex_solve_coefficients_and_span_rows():
    # x = a (1,0,0) + b (1,2,0): b = x2 / 2, a = x1 - x2 / 2, x3 = 0
    coords, span = simplex_solve(((1, 0, 0), (1, 2, 0)))
    assert coords == (((2, -1, 0), 2), ((0, 1, 0), 2))
    assert span == ((0, 0, 1),)
    assert simplex_solve(((1, 1), (1, -1))) == ((((1, 1), 2), ((1, -1), 2)), ())
    # rational entries: x = t (1/2, 1) has t = x2 on the line 2 x1 = x2
    assert simplex_solve(((Fraction(1, 2), 1),)) == ((((0, 1), 1),), ((2, -1),))
    with pytest.raises(InputError):
        simplex_solve(((1, 2), (2, 4)))
    with pytest.raises(InputError):
        simplex_solve(((1, 0), (0, 1), (1, 1)))
    with pytest.raises(InputError):
        simplex_solve(())


def test_primitive_scaling():
    assert primitive([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)
    assert primitive([2, 4, 6]) == (1, 2, 3)
    assert primitive([-2, 4]) == (-1, 2)
    with pytest.raises(ValueError):
        primitive([0, 0])


def test_snf_known_diagonals():
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert snf_diagonal([[1, 0, 0], [0, 1, 0], [1, 1, 2]]) == [1, 1, 2]
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]  # invariant factors divide
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diagonal([[1, 1]]) == [1]


def test_lattice_normalized_volume():
    assert lattice_normalized_volume([[2]]) == 2
    assert lattice_normalized_volume([[1, 1]]) == 1
    assert lattice_normalized_volume([[2, 2]]) == 2
    assert lattice_normalized_volume([[1, 1], [1, -1]]) == 2
    assert lattice_normalized_volume([[1, 0, 0], [0, 1, 0], [1, 1, 2]]) == 2
    with pytest.raises(ValueError):
        lattice_normalized_volume([[1, 1], [2, 2]])
