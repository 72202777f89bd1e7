"""Helpers shared by the test modules: short forms of things the library
has no caller for, seeded test inputs, rational linear algebra and the
listing oracle `lattice_points`.

The `fraction_*` functions are oracles: Gauss-Jordan elimination over
`Fraction`, sharing no code with the integer elimination `linalg._echelon`
that the library runs, so an oracle built on them checks that elimination
rather than repeating it.

`lattice_points` lists the integer solutions of any integer equalities and
inequalities in a given box. It prepares its own walk from those
constraints, with a box of the free coordinates read off V^-1 by interval
arithmetic and the given box as extra rows, so it checks the walk data
that `enumerate_points` reads rather than sharing them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from ehrkit import linalg
from ehrkit.cones import RationalCone, decompose, homogenize
from ehrkit.enumeration import IntPoint, _lattice_basis, _walk
from ehrkit.errors import TheoremViolationError
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
