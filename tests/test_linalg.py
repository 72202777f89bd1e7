"""Exact linear algebra unit tests with hand-checked oracles.

The fraction-free `simplex_solve` is also compared with
`fraction_simplex_solve`, the rational Gauss-Jordan solve it replaced, on
seeded random generator sets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from ehrkit.cones import HalfOpenSimplicialCone
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
    for gens in (((1, 0), (1,)), ((1,), (0, 1)), ((1, 0), (0, 1, 2))):
        with pytest.raises(InputError, match="mixed ambient dimensions"):
            simplex_solve(gens)
        with pytest.raises(InputError, match="mixed ambient dimensions"):
            HalfOpenSimplicialCone(gens, (False,) * len(gens))


def fraction_rref(rows):
    """Oracle: reduced row echelon form by rational Gauss-Jordan."""
    work = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def fraction_simplex_solve(generators):
    """Oracle: (T, C) read off the rational rref of [G | I]."""
    if not generators:
        raise InputError("a simplex needs at least one generator")
    k, n = len(generators), len(generators[0])
    rref, pivots = fraction_rref([[g[j] for g in generators]
                                  + [int(i == j) for i in range(n)] for j in range(n)])
    if pivots[:k] != list(range(k)):
        raise InputError("generators of a simplex must be independent")
    t_rows = []
    for row in rref[:k]:
        den = lcm(*(v.denominator for v in row[k:]))
        t_rows.append((tuple(int(v * den) for v in row[k:]), den))
    c_rows = tuple(primitive(row[k:]) for row in rref[k:])
    return tuple(t_rows), c_rows


def random_generators(rng):
    """(generators, kind, rational): k <= n vectors in R^n, n = 1..6, with
    integer entries or denominators 1-3; kind "dependent" when one more
    vector, an integer combination of the others or zero, is inserted."""
    n = rng.randint(1, 6)
    k = rng.randint(1, n)
    rational = rng.random() < 0.5

    def entry():
        den = rng.randint(1, 3) if rational else 1
        return Fraction(rng.randint(-3 * den, 3 * den), den)
    gens = [tuple(entry() for _ in range(n)) for _ in range(k)]
    kind = "independent"
    roll = rng.random()
    if roll < 0.2:
        coeffs = [rng.randint(-2, 2) for _ in gens]
        gens.insert(rng.randint(0, k), tuple(sum(c * g[j] for c, g in zip(coeffs, gens))
                                             for j in range(n)))
        kind = "dependent"
    elif roll < 0.25:
        gens.insert(rng.randint(0, k), tuple(Fraction(0) for _ in range(n)))
        kind = "dependent"
    if not rational:
        gens = [tuple(int(v) for v in g) for g in gens]
    return tuple(gens), kind, rational


def test_simplex_solve_matches_fraction_solve_on_random_generators():
    rng = random.Random(2024)
    seen = {"solved": 0, "raised": 0, "dependent": 0, "lower_rank": 0,
            "rational": 0, "integer": 0}
    ambient = set()
    for trial in range(5000):
        gens, kind, rational = random_generators(rng)
        ambient.add(len(gens[0]))
        try:
            expected = fraction_simplex_solve(gens)
        except InputError:
            with pytest.raises(InputError):
                simplex_solve(gens)
            seen["raised"] += 1
            seen["dependent"] += kind == "dependent"
            continue
        assert kind == "independent" and simplex_solve(gens) == expected, (trial, gens)
        seen["solved"] += 1
        seen["lower_rank"] += len(gens) < len(gens[0])
        seen["rational"] += rational
        seen["integer"] += not rational
    assert seen["solved"] >= 3000 and seen["raised"] >= 800, seen
    assert seen["dependent"] >= 800 and seen["lower_rank"] >= 1500, seen
    assert seen["rational"] >= 1000 and seen["integer"] >= 1000, seen
    assert ambient == {1, 2, 3, 4, 5, 6}


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
