"""Exact linear algebra unit tests with hand-checked oracles.

The fold of `jump_solve` is also compared with the rational Gauss-Jordan
oracles of `helpers` on seeded random inputs: `simplex_solve` with
`fraction_simplex_solve`, `rank` with `fraction_rank` and `solve_integral`
with `fraction_solve`. `smith_form` is compared with the determinantal
divisors (gcds of minors) of random integer matrices,
`lattice_normalized_volume` of square rows with the Fraction determinant,
and the integral `lll` with `helpers.fraction_lll`, the same reduction with
its Gram-Schmidt data in Fraction.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit.cones import HalfOpenSimplicialCone
from ehrkit.errors import InputError
from ehrkit.linalg import (
    exchange_solve,
    int_dot,
    jump_solve,
    lattice_normalized_volume,
    lll,
    primitive,
    simplex_solve,
    smith_form,
    solve_integral,
)

from helpers import (
    fraction_det,
    fraction_gram_schmidt,
    fraction_lll,
    fraction_rank,
    fraction_simplex_solve,
    fraction_solve,
)


def test_solve_consistent_and_inconsistent():
    x = fraction_solve([[1, 1], [1, -1]], [4, 0])
    assert x == (2, 2)
    assert fraction_solve([[1, 1], [2, 2]], [1, 3]) is None
    under = fraction_solve([[1, 1, 0]], [5])
    assert under is not None and sum(under[:2]) == 5
    assert solve_integral([[1, 1], [1, -1]], [[4], [1]]) == (((5,), (3,)), 2)
    assert solve_integral([[1, 1], [1, -1]], [[4, 0], [1, 2]]) == (((5, 2), (3, -2)), 2)
    assert solve_integral([[1, 1], [2, 2]], [[1], [3]]) is None
    assert solve_integral([[1, 1], [2, 2]], [[1, 0], [2, 1]]) is None


def test_solve_integral_matches_fraction_solve():
    # Y / L over one positive denominator, None exactly when singular; each
    # column of Y / L solves the system for that column of the right-hand side
    rng = random.Random(20261023)
    singular = 0
    for _ in range(300):
        k = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        rhs = [rng.randint(-4, 4) for _ in range(k)]
        columns = (rhs, [i - b for i, b in enumerate(rhs)])
        solved = solve_integral(rows, list(zip(*columns)))
        if fraction_rank(rows) < k:
            assert solved is None
            singular += 1
            continue
        y, den = solved
        assert den > 0 and all(type(v) is int for row in y for v in row)
        for column, b in zip(zip(*y), columns):
            assert tuple(Fraction(v, den) for v in column) == fraction_solve(rows, b)
    assert singular >= 20, singular


def test_solve_integral_matches_fraction_oracles():
    # solve_integral reads Y / L off the fold of A's columns, None exactly
    # when a column is skipped
    rng = random.Random(20261024)
    seen = Counter()
    for trial in range(600):
        k = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if trial % 3 == 0 and k > 1:  # a column in the span of the others
            coeffs = [rng.randint(-2, 2) for _ in range(k - 1)]
            for row in rows:
                row[-1] = int_dot(coeffs, row[:-1])
        m = rng.randint(1, 3)
        rhs = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        solved = solve_integral(rows, rhs)
        if fraction_rank(rows) < k:
            assert solved is None, rows
            seen["singular"] += 1
            continue
        y, den = solved
        assert den > 0 and all(type(v) is int for row in y for v in row)
        for column, b in zip(zip(*y), zip(*rhs)):
            assert tuple(Fraction(v, den) for v in column) == fraction_solve(rows, b), rows
        seen["regular"] += 1
    minimum = {"singular": 150, "regular": 350}
    assert all(seen[kind] >= least for kind, least in minimum.items()), seen


def test_simplex_solve_coefficients_and_span_rows():
    # x = a (1,0,0) + b (1,2,0): b = x2 / 2, a = x1 - x2 / 2, x3 = 0
    coords, span = simplex_solve(((1, 0, 0), (1, 2, 0)))
    assert coords == (((2, -1, 0), 2), ((0, 1, 0), 2))
    assert span == ((0, 0, 1),)
    assert simplex_solve(((1, 1), (1, -1))) == ((((1, 1), 2), ((1, -1), 2)), ())
    # x = t (1, 2) has t = x2 / 2 on the line 2 x1 = x2
    assert simplex_solve(((1, 2),)) == ((((0, 1), 2),), ((2, -1),))
    with pytest.raises(InputError, match="integer vectors"):
        simplex_solve(((Fraction(1, 2), 1),))
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


def random_generators(rng):
    """(generators, kind): k <= n integer vectors in Z^n, n = 1..6, with
    entries -3..3; kind "dependent" when one more vector, an integer
    combination of the others or zero, is inserted."""
    n = rng.randint(1, 6)
    k = rng.randint(1, n)
    gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
    kind = "independent"
    roll = rng.random()
    if roll < 0.2:
        coeffs = [rng.randint(-2, 2) for _ in gens]
        gens.insert(rng.randint(0, k), tuple(int_dot(coeffs, column) for column in zip(*gens)))
        kind = "dependent"
    elif roll < 0.25:
        gens.insert(rng.randint(0, k), (0,) * n)
        kind = "dependent"
    return tuple(gens), kind


def test_simplex_solve_matches_fraction_solve_on_random_generators():
    # integer generators only: simplex_solve refuses rational ones
    rng = random.Random(2024)
    seen = Counter()
    ambient = set()
    for trial in range(5000):
        gens, kind = random_generators(rng)
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
    assert seen["solved"] >= 3000 and seen["raised"] >= 800, seen
    assert seen["dependent"] >= 800 and seen["lower_rank"] >= 1500, seen
    assert ambient == {1, 2, 3, 4, 5, 6}


@st.composite
def exchanges(draw):
    """(generators, apex, q): k independent vectors in R^n, n = 1..5, with
    integer entries or denominators 1-3, one of them the apex, and a
    vector q = L sum_j c_j g_j in their span with c_apex != 0, scaled by the
    lcm L of the entries' denominators to integers."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    den = draw(st.sampled_from((1, 1, 2, 3)))
    entry = st.integers(-3 * den, 3 * den).map(lambda v: Fraction(v, den))
    gens = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    try:
        fraction_simplex_solve(gens)
    except InputError:
        assume(False)
    apex = draw(st.integers(0, k - 1))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    coeffs[apex] = draw(st.sampled_from((-3, -2, -1, -1, -1, 1, 2)))
    scale = lcm(*(v.denominator for g in gens for v in g))
    q = tuple(int(scale * sum(c * g[j] for c, g in zip(coeffs, gens))) for j in range(n))
    if draw(st.booleans()) and den == 1:
        gens = [tuple(map(int, g)) for g in gens]
    return tuple(gens), apex, q


def test_exchange_solve_matches_fraction_solve():
    kinds = Counter()

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(exchanges())
    def check(case):
        gens, apex, q = case
        new = gens[:apex] + gens[apex + 1:] + (q,)
        solve = fraction_simplex_solve(gens)  # simplex_solve takes integer generators only
        made = exchange_solve(q, solve, apex)
        assert made == fraction_simplex_solve(new), case
        assert all(type(v) is int for row, den in made[0] for v in row + (den,))
        s = int_dot(solve[0][apex][0], q)
        kinds["pivot"] += 1
        kinds["visible" if s < 0 else "not visible"] += 1
        kinds["embedded"] += len(gens) < len(gens[0])
        kinds["rational generators"] += any(type(v) is not int for g in gens for v in g)
        # a row whose gcd with its den is not 1 before the division
        kinds["reduced"] += any(den != abs(s) * old for (_, den), (_, old)
                                in zip(made[0], solve[0][:apex] + solve[0][apex + 1:]))

    check()
    minimum = {"pivot": 200, "visible": 200, "not visible": 30,
               "embedded": 150, "rational generators": 150, "reduced": 150}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


@st.composite
def jumps(draw):
    """(generator sets, q): two to four sets of k = 0..n-1 independent
    vectors in R^n, n = 1..5, that span one space, and an integer vector q
    outside it. All are combinations of m seeded basis vectors, k < m <= n,
    so their span is often proper; the first set's coefficients have
    denominators 1-3, and each other set is an integer combination of it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(1, 5)
    k = rng.randint(0, n - 1)
    m = rng.randint(k + 1, n)
    den = rng.choice((1, 1, 2, 3))
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        gens = [tuple(sum(Fraction(rng.randint(-2 * den, 2 * den), den) * b[j] for b in basis)
                      for j in range(n)) for _ in range(k)]
        q = tuple(sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n))
        if fraction_rank(gens + [q]) == k + 1:
            break
    sets = [gens]
    for _ in range(rng.randint(1, 3)):
        while True:
            mix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            other = [tuple(sum((c * g[j] for c, g in zip(row, gens)), Fraction(0))
                           for j in range(n)) for row in mix]
            if fraction_rank(other) == k:
                break
        sets.append(other)
    if all(v.denominator == 1 for g in gens for v in g) and draw(st.booleans()):
        sets = [[tuple(map(int, g)) for g in gens] for gens in sets]
    return tuple(tuple(gens) for gens in sets), q


def test_jump_solve_matches_fraction_solve():
    kinds = Counter()

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(jumps())
    def check(case):
        sets, q = case
        n = len(q)
        if sets[0]:
            solves = [fraction_simplex_solve(gens) for gens in sets]
            assert all(c_rows == solves[0][1] for _, c_rows in solves), case  # one span
        else:
            unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            solves = [((), unit)] * len(sets)
        c_rows = solves[0][1]
        # the solves hold one C tuple, as placing's do, and so do the new ones
        made = jump_solve(q, [(t_rows, c_rows) for t_rows, _ in solves])
        assert len(made) == len(sets) >= 2, case
        assert made == [fraction_simplex_solve(gens + (q,)) for gens in sets], case
        assert all(new_c is made[0][1] for _, new_c in made), case
        assert all(type(v) is int for t_rows, _ in made for row, den in t_rows
                   for v in row + (den,))
        sums = [int_dot(row, q) for row in c_rows]
        star = max(j for j, v in enumerate(sums) if v)
        kinds["empty start"] += not sets[0]
        kinds["embedded"] += len(sets[0]) + 1 < n
        kinds["rational generators"] += any(type(v) is not int
                                            for gens in sets for g in gens for v in g)
        # a C row before c that changes, and one with s < 0: the rows a
        # first-j or unsigned update would get wrong
        kinds["C row updated"] += any(sums[:star])
        kinds["C row updated, s < 0"] += any(sums[:star]) and sums[star] < 0
        # a q row c / s that the reduction signs to den > 0 (c is primitive,
        # so the sign is all it changes)
        kinds["q row signed"] += sums[star] < 0

    check()
    minimum = {"empty start": 50, "embedded": 70,
               "rational generators": 25, "C row updated": 50,
               "C row updated, s < 0": 15, "q row signed": 30}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


def test_primitive_scaling():
    assert primitive([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)
    assert primitive([2, 4, 6]) == (1, 2, 3)
    assert primitive([-2, 4]) == (-1, 2)
    with pytest.raises(ValueError):
        primitive([0, 0])


def test_snf_known_diagonals():
    assert smith_form([[2, 4], [6, 8]])[0] == [2, 4]
    assert smith_form([[1, 0, 0], [0, 1, 0], [1, 1, 2]])[0] == [1, 1, 2]
    assert smith_form([[2, 0], [0, 3]])[0] == [1, 6]  # invariant factors divide
    assert smith_form([[0, 0], [0, 0]])[0] == [0, 0]
    assert smith_form([[1, 1]])[0] == [1]


def fraction_det(rows):
    """Oracle: determinant of a square integer matrix by rational elimination."""
    work = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(len(work)):
        pivot = next((i for i in range(c, len(work)) if work[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, len(work)):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return int(det)


def determinantal_divisor(rows, i):
    """Oracle: gcd of the i x i minors, 0 when all of them vanish."""
    g = 0
    for rs in itertools.combinations(range(len(rows)), i):
        for cs in itertools.combinations(range(len(rows[0])), i):
            g = gcd(g, fraction_det([[rows[r][c] for c in cs] for r in rs]))
    return g


def test_smith_form_matches_determinantal_divisors():
    rng = random.Random(4099)
    seen = {"full_rank": 0, "rank_deficient": 0, "zero": 0, "nontrivial": 0}
    for _ in range(600):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        roll = rng.random()
        columns = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        if roll < 0.1:
            columns = [[0] * n for _ in range(k)]
        elif roll < 0.5 and k > 1:
            # a column that is an integer combination of the others
            coeffs = [rng.randint(-2, 2) for _ in range(k - 1)]
            columns[-1] = [sum(c * col[j] for c, col in zip(coeffs, columns))
                           for j in range(n)]
        a = [[col[j] for col in columns] for j in range(n)]  # columns as columns
        diag, v = smith_form(columns)
        assert len(diag) == min(n, k) and all(d >= 0 for d in diag)
        for i in range(1, len(diag) + 1):
            assert prod(diag[:i]) == determinantal_divisor(a, i), (columns, diag)
        assert len(v) == k and all(len(row) == k for row in v)
        assert abs(fraction_det(v)) == 1, (columns, v)
        r = sum(d > 0 for d in diag)
        av = [[sum(a[j][t] * v[t][i] for t in range(k)) for i in range(k)]
              for j in range(n)]
        # A V = U^-1 D: columns past the rank vanish, the others divide by d_i
        # into a basis of the lattice points of the column span
        assert all(av[j][i] == 0 for j in range(n) for i in range(r, k))
        assert all(av[j][i] % diag[i] == 0 for j in range(n) for i in range(r))
        basis = [[av[j][i] // diag[i] for i in range(r)] for j in range(n)]
        if r:
            assert determinantal_divisor(basis, r) == 1, (columns, diag)
        seen["full_rank"] += r == min(n, k)
        seen["rank_deficient"] += 0 < r < min(n, k)
        seen["zero"] += r == 0
        seen["nontrivial"] += any(d > 1 for d in diag)
    assert seen["full_rank"] >= 300 and seen["rank_deficient"] >= 60, seen
    assert seen["zero"] >= 40 and seen["nontrivial"] >= 200, seen


def test_lattice_normalized_volume():
    assert lattice_normalized_volume([[2]]) == 2
    assert lattice_normalized_volume([[1, 1]]) == 1
    assert lattice_normalized_volume([[2, 2]]) == 2
    assert lattice_normalized_volume([[1, 1], [1, -1]]) == 2
    assert lattice_normalized_volume([[1, 0, 0], [0, 1, 0], [1, 1, 2]]) == 2
    with pytest.raises(ValueError):
        lattice_normalized_volume([[1, 1], [2, 2]])


def test_lattice_normalized_volume_of_square_rows_is_the_determinant():
    # square rows take Bareiss's elimination, not the Smith form: both
    # against the Fraction determinant, with zero pivots and singular rows
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
        det = abs(fraction_det(rows))
        if det:
            assert lattice_normalized_volume(rows) == det == prod(smith_form(rows)[0]), rows
        else:
            with pytest.raises(ValueError):
                lattice_normalized_volume(rows)
        seen["singular" if not det else "regular"] += 1
        seen["zero first pivot"] += det != 0 and rows[0][0] == 0
        seen["volume > 1"] += det > 1
    assert seen["singular"] >= 150 and seen["zero first pivot"] >= 250, seen
    assert seen["volume > 1"] >= 900, seen


@st.composite
def gram_matrices(draw):
    """B B^T for an integer n x m matrix B of rank n, n = 1..5, m = n..n+2:
    a positive definite integer Gram matrix. Its rows are sometimes drawn
    close to one another, which makes a reduction swap and reduce often,
    and sometimes close to orthogonal, which may leave nothing to do."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, n + 2))
    rows = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * m), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("plain", "skewed", "near orthogonal")))
    if shape == "skewed":  # b_i + c_i b_0 for large c_i
        factors = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
        rows = [rows[0]] + [tuple(a + f * b for a, b in zip(row, rows[0]))
                            for row, f in zip(rows[1:], factors[1:])]
    elif shape == "near orthogonal":  # a dominant diagonal
        rows = [tuple(v + 40 * (i == j) for j, v in enumerate(row)) for i, row in enumerate(rows)]
    assume(fraction_rank(rows) == n)
    return [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]


def test_lll_matches_the_fraction_oracle():
    kinds = Counter()

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(gram_matrices())
    def check(gram):
        n = len(gram)
        u, w = lll(gram)
        assert u == fraction_lll(gram), gram
        assert all(type(v) is int for row in u + w for v in row)
        assert [[int_dot(a, b) for b in u] for a in w] == [
            [int(i == j) for j in range(n)] for i in range(n)], gram
        assert abs(fraction_det(u)) == 1
        mu, lengths = fraction_gram_schmidt(gram, u)
        for i in range(1, n):  # size reduced, and Lovasz's condition with 3/4
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i)), gram
            assert lengths[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * lengths[i - 1], gram
        kinds[f"n = {n}"] += 1
        kinds["changed"] += u != [[int(i == j) for j in range(n)] for i in range(n)]
        kinds["unchanged, n > 1"] += n > 1 and u == [
            [int(i == j) for j in range(n)] for i in range(n)]

    check()
    minimum = {"n = 1": 30, "n = 2": 40, "n = 3": 50, "n = 4": 40, "n = 5": 40,
               "changed": 170, "unchanged, n > 1": 40}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds
