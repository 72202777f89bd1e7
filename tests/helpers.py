"""Helpers shared by the test modules: short forms of things the library
has no caller for, seeded test inputs, rational linear algebra, the
listing oracle `lattice_points`, the serialization oracle `to_jsonable`
and the combinatorial boundary oracle `boundary_facets`.

The `fraction_*` functions are oracles: Gauss-Jordan elimination over
`Fraction`, sharing no code with the integer elimination `linalg._echelon`
that the library runs, so an oracle built on them checks that elimination
rather than repeating it.

`lattice_points` lists the integer solutions of any integer equalities and
inequalities in a given box. It prepares its own walk from those
constraints, with a box of the free coordinates read off V^-1 by interval
arithmetic and the given box as extra rows, so it checks the walk data
that `enumerate_points` reads rather than sharing them. It does share the
library's `_lattice_basis` and `_walk`, so it is no oracle for the walk
itself: the tests check the walk against the Fraction box scan and the
ambient walk of `test_enumeration`, which share no code with it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, lcm
from typing import Iterable, Sequence

from ehrkit import linalg
from ehrkit.cones import RationalCone, decompose, homogenize
from ehrkit.enumeration import IntPoint, _lattice_basis, _walk
from ehrkit.errors import InputError, TheoremViolationError
from ehrkit.jsonio import rat_to_json
from ehrkit.polytope import RationalPolytope
from ehrkit.ratpoly import Poly, QuasiPoly, RatLike
from ehrkit.structure import ABDecomposition, HStarProfile


def normalize(points: Iterable[Sequence[RatLike]], name: str = "") -> RationalPolytope:
    """Functional alias for RationalPolytope.from_points."""
    return RationalPolytope.from_points(points, name=name)


def cone_contains(cone: RationalCone, x: Sequence) -> bool:
    """Exact membership in the closed cone: x lies in some closed piece."""
    return any(piece.locate(x)[0] for piece in decompose(cone))


def minimal_period(q: QuasiPoly) -> int:
    """Smallest divisor r of the period with r-periodic constituents."""
    for r in range(1, q.period + 1):
        if q.period % r == 0 and all(q.constituents[i] == q.constituents[i % r]
                                     for i in range(q.period)):
            return r
    return q.period


def negate_argument(q: QuasiPoly) -> QuasiPoly:
    """The quasipolynomial n -> q(-n), same period."""
    p = q.period
    return QuasiPoly(p, [Poly([c * (-1) ** i for i, c in enumerate(q.constituents[(-r) % p].coeffs)])
                         for r in range(p)])


def lattice_points(equalities, inequalities, lo: IntPoint, hi: IntPoint) -> list[IntPoint]:
    """Integer points x of the box lo <= x <= hi, lexicographically sorted,
    with <a, x> == c for every (a, c) in equalities and <a, x> <= c for
    every (a, c) in inequalities. All data must be integers, and the
    equality normals independent.

    The walk runs over the free coordinates of `_lattice_basis`: the box
    becomes the rows lo <= V y <= hi and, by interval arithmetic on V_inv,
    a box of y; the points x = V y are sorted at the end.
    """
    v, v_inv, fixed, den = _lattice_basis(equalities, len(lo))
    if any(y % den for y in fixed):
        return []
    k = len(fixed)
    y_fixed = [y // den for y in fixed]
    columns = list(zip(*v))
    rows = []
    for a, c in inequalities:
        av = [linalg.int_dot(a, col) for col in columns]
        rows.append((av[k:], c - linalg.int_dot(av[:k], y_fixed)))
    y_lo = [sum(min(u * l, u * h) for u, l, h in zip(row, lo, hi)) for row in v_inv[k:]]
    y_hi = [sum(max(u * l, u * h) for u, l, h in zip(row, lo, hi)) for row in v_inv[k:]]
    if k:  # with V = I the box of y is the box of x
        for row, l, h in zip(v, lo, hi):
            shift = linalg.int_dot(row[:k], y_fixed)
            rows.append((row[k:], h - shift))
            rows.append((tuple(-u for u in row[k:]), shift - l))
    runs: list = []
    closed, _ = _walk(rows, y_lo, y_hi, False, runs)
    # prefixes and values both ascend, so the points y come out sorted
    points = ([prefix + (value,) for prefix, low, high in runs
               for value in range(low, high + 1)] if y_lo else [()] * closed)
    if not k:
        return points  # V = I: y is x
    head = tuple(y_fixed)
    return sorted(tuple(linalg.int_dot(row, head + y) for row in v) for y in points)


def to_jsonable(value):
    """A JSON-ready copy of `value`: Fractions as `rat_to_json` renders them,
    tuples as lists, keys as `str(key)`. `json.dumps(to_jsonable(x),
    indent=2) + "\\n"` is what `jsonio.dumps(x)` must write."""
    if isinstance(value, Fraction):
        return rat_to_json(value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise InputError(f"cannot serialize {type(value).__name__} to JSON")


def lattice_cloud(seed: int, dim: int, size: int, side: int) -> list[tuple[int, ...]]:
    """`size` distinct seeded points of {0..side}^dim, sorted."""
    rng = random.Random(seed)
    points: set[tuple[int, ...]] = set()
    while len(points) < size:
        points.add(tuple(rng.randint(0, side) for _ in range(dim)))
    return sorted(points)


def cloud_cone(seed: int, dim: int, size: int, side: int) -> RationalCone:
    """The cone over the hull of a seeded lattice cloud, lifted to height 1."""
    return homogenize(RationalPolytope.from_points(lattice_cloud(seed, dim, size, side)))


def fraction_rref(rows):
    """Reduced row echelon form by rational Gauss-Jordan: (rows, pivots),
    zero rows dropped."""
    work = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv if x else x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b if b else a for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def fraction_rank(rows) -> int:
    return len(fraction_rref(rows)[1])


def fraction_dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def fraction_sub(u, v) -> tuple[Fraction, ...]:
    return tuple(Fraction(a) - b for a, b in zip(u, v))


def fraction_nullspace(rows, ncols):
    """Basis of {x : A x = 0}: e_f minus the rref entries in column f, one
    vector per free column f."""
    rref, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def fraction_solve(rows, rhs):
    """One solution of A x = b (free variables 0), or None if inconsistent."""
    rows = list(rows)
    if not rows:
        return tuple() if all(Fraction(b) == 0 for b in rhs) else None
    ncols = len(rows[0])
    rref, pivots = fraction_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    x = [Fraction(0)] * ncols
    for row, p in zip(rref, pivots):
        if p == ncols:
            return None  # pivot in the rhs column: 0 = 1
        x[p] = row[-1]
    return tuple(x)


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
    c_rows = tuple(linalg.primitive(row[k:]) for row in rref[k:])
    return tuple(t_rows), c_rows


def boundary_facets(cells):
    """Oracle: (facet, apex) pairs for the facets lying in exactly one cell,
    in the order of the cells and then of the dropped vertex."""
    seen = {}
    for cell in cells:
        for drop in cell:
            facet = tuple(v for v in cell if v != drop)
            seen.setdefault(facet, []).append(drop)
    return [(facet, apexes[0]) for facet, apexes in seen.items() if len(apexes) == 1]


def rank_vertices(points, hrep, dim: int) -> list:
    """Oracle: the distinct points at which the tight facet normals of the
    half-space form have rank dim, sorted."""
    points = sorted(set(tuple(Fraction(v) for v in p) for p in points))
    if dim == 0:
        return points
    return [p for p in points
            if fraction_rank([a for a, c in hrep.inequalities if fraction_dot(a, p) == c]) == dim]


def fraction_ab_split(pr: HStarProfile) -> ABDecomposition:
    """The palindromic split solved as a linear system in Fraction, with a
    rank certificate of uniqueness, and the same checks and messages as
    `structure.ab_decomposition`."""
    d, l = pr.d, pr.l
    product = Poly([1] * l) * Poly(pr.coeffs)
    n_a = d + 1
    n_b = max(d - l + 1, 0)
    n = n_a + n_b
    rows, rhs = [], []
    # coefficient matching: a_i + b_{i-l} = product_i for 0 <= i <= d
    for i in range(d + 1):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        if 0 <= i - l < n_b:
            row[n_a + i - l] = Fraction(1)
        rows.append(row)
        rhs.append(product[i])
    # palindromy constraints
    for i in range(d + 1):
        row = [Fraction(0)] * n
        row[i] += 1
        row[d - i] -= 1
        rows.append(row)
        rhs.append(Fraction(0))
    for i in range(n_b):
        row = [Fraction(0)] * n
        row[n_a + i] += 1
        row[n_a + d - l - i] -= 1
        rows.append(row)
        rhs.append(Fraction(0))
    if fraction_rank(rows) != n:
        raise TheoremViolationError("palindromic split is not unique")
    solution = fraction_solve(rows, rhs)
    if solution is None:
        raise TheoremViolationError("palindromic split has no solution")
    a = Poly(solution[:n_a])
    b = Poly(solution[n_a:])
    if product != a + b.shift(l):
        raise TheoremViolationError("palindromic split failed to reconstruct")
    for name, part in (("a", a), ("b", b)):
        if not part.is_nonnegative():
            raise TheoremViolationError(f"{name}-part has a negative coefficient")
    if a[0] != 1:
        raise TheoremViolationError("a-part must start with 1")
    for j in range(2, d):
        if not a[1] <= a[j]:
            raise TheoremViolationError("a-part chain a_1 <= a_j failed")
    return ABDecomposition(a, b, l, d)


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fraction."""
    work = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for c in range(len(work)):
        pivot = next((i for i in range(c, len(work)) if work[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, len(work)):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def fraction_gram_schmidt(gram, basis):
    """(mu, B): the Gram-Schmidt coefficients and squared lengths of the rows
    of `basis` under the Gram matrix `gram`, in Fraction."""
    n = len(basis)
    images = [[sum(a * b for a, b in zip(row, vec)) for row in gram] for vec in basis]
    inner = [[sum(a * b for a, b in zip(u, image)) for image in images] for u in basis]
    mu = [[Fraction(0)] * n for _ in range(n)]
    lengths = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (inner[i][j] - sum(mu[j][m] * mu[i][m] * lengths[m]
                                          for m in range(j))) / lengths[j]
        lengths.append(inner[i][i] - sum(mu[i][m] ** 2 * lengths[m] for m in range(i)))
    return mu, lengths


def fraction_lll(gram):
    """Oracle: LLL reduction (delta = 3/4) of Z^n under `gram` in Fraction,
    with the Gram-Schmidt data recomputed from scratch at every step, in the
    step order of Cohen's Alg. 2.6.3: reduce b_k by b_(k-1), test Lovasz's
    condition, and either swap or reduce b_k by the others. Returns U, whose
    rows are the reduced basis."""
    n = len(gram)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def reduce(k, l):
        mu = fraction_gram_schmidt(gram, basis)[0][k][l]
        if abs(mu) > Fraction(1, 2):
            q = floor(mu + Fraction(1, 2))
            basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]

    k = 1
    while k < n:
        reduce(k, k - 1)
        mu, lengths = fraction_gram_schmidt(gram, basis)
        if lengths[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * lengths[k - 1]:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return basis
