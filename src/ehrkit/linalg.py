"""Exact linear algebra over the rationals and the integers.

Vectors are tuples, matrices are lists of row tuples; no floats anywhere.
Every elimination is one fraction-free Gauss-Jordan, `_echelon`: rows are
scaled to integers and each row operation is divided by the gcd of the new
row, so entries stay no larger than in Bareiss's elimination (Math. Comp.
22, 1968). `simplex_solve` is the one (cached) barycentric solve of a
simplex; placing triangulations, half-open cone pieces and fundamental
parallelepipeds all read it, and it never leaves the integers. Ambient
dimensions here stay in the single digits, so cubic elimination and Smith
reduction are more than fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import InputError

Vec = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product with no Fraction conversion: an int on integer data."""
    return sum(map(mul, u, v))


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) - b for a, b in zip(u, v))


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Returns (rows, pivot_columns) with zero rows dropped: each row is an
    integer vector with gcd 1 and a nonzero multiple (of either sign) of
    the matching row of the reduced row echelon form.
    """
    work = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        ints = [v.numerator * (scale // v.denominator) for v in row]
        g = gcd(*ints)
        work.append([v // g for v in ints] if g > 1 else ints)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                new = [p * a - f * b for a, b in zip(row, top)]
                g = gcd(*new)
                work[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return work[:r], pivots


def row_reduce(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.

    Returns (rref_rows, pivot_columns). Zero rows are dropped, so
    len(rref_rows) == rank.
    """
    echelon, pivots = _echelon(rows)
    return [tuple(Fraction(v, row[c]) for v in row)
            for row, c in zip(echelon, pivots)], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vec]:
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("nullspace of an empty matrix needs explicit ncols")
        ncols = len(rows[0])
    rref, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One exact solution of A x = b, or None if the system is inconsistent."""
    rows = list(rows)
    if not rows:
        return tuple() if all(Fraction(b) == 0 for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = row_reduce(aug)
    x = [Fraction(0)] * ncols
    for row, p in zip(rref, pivots):
        if p == ncols:
            return None  # pivot in the rhs column: 0 = 1
        x[p] = row[-1]
    return tuple(x)


@lru_cache(maxsize=None)
def simplex_solve(generators: tuple[tuple, ...]):
    """Barycentric solve of independent rational vectors: (T, C) in integers.

    T is a tuple of (row, den) pairs with den > 0, so that the coefficient
    of generators[i] in x is <T_i, x> / den_i, and C a tuple of primitive
    rows with positive leading entries, C x = 0 exactly when x lies in the
    generators' span. Both are read off the fraction-free Gauss-Jordan
    elimination of [G | I], where G is the ambient x k matrix whose columns
    are the generators: its first k rows, (p_i e_i | v_i), give
    T_i = (v_i, p_i) up to the sign of p_i, the remaining rows (0 | w) the
    span-membership test. Each row has gcd 1, so these are the reduced
    forms of the rows of the rational rref. Raises InputError unless the
    generators are nonempty, of one length and independent.
    """
    if not generators:
        raise InputError("a simplex needs at least one generator")
    k, n = len(generators), len(generators[0])
    if any(len(g) != n for g in generators):
        raise InputError("generators with mixed ambient dimensions")
    rows, pivots = _echelon([[g[j] for g in generators]
                             + [int(i == j) for i in range(n)] for j in range(n)])
    if pivots[:k] != list(range(k)):
        raise InputError("generators of a simplex must be independent")
    t_rows = tuple((tuple(row[k:]), row[i]) if row[i] > 0
                   else (tuple(-v for v in row[k:]), -row[i])
                   for i, row in enumerate(rows[:k]))
    c_rows = tuple(tuple(row[k:]) if row[c] > 0 else tuple(-v for v in row[k:])
                   for row, c in zip(rows[k:], pivots[k:]))
    return t_rows, c_rows


def primitive(vector: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to coprime ints."""
    fracs = [Fraction(v) for v in vector]
    if all(f == 0 for f in fracs):
        raise ValueError("primitive() of the zero vector")
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def snf_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returned entries are the nonnegative invariant factors d_1 | d_2 | ...,
    including any zeros, with length min(nrows, ncols).
    """
    work = [list(map(int, r)) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < m and top < n:
        # move a nonzero entry to the (top, top) position
        pivot = next(
            ((i, j) for i in range(top, m) for j in range(top, n) if work[i][j] != 0),
            None,
        )
        if pivot is None:
            diag.extend([0] * (min(m, n) - top))
            return diag
        pi, pj = pivot
        work[top], work[pi] = work[pi], work[top]
        for row in work:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear the pivot column with euclidean steps
            dirty = False
            for i in range(top + 1, m):
                if work[i][top] != 0:
                    q = work[i][top] // work[top][top]
                    work[i] = [a - q * b for a, b in zip(work[i], work[top])]
                    if work[i][top] != 0:
                        work[top], work[i] = work[i], work[top]
                        dirty = True
            for j in range(top + 1, n):
                if work[top][j] != 0:
                    q = work[top][j] // work[top][top]
                    for row in work:
                        row[j] -= q * row[top]
                    if work[top][j] != 0:
                        for row in work:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
            if not dirty:
                break
        # divisibility fix-up: pivot must divide the rest of the block
        p = abs(work[top][top])
        offender = next(
            (
                (i, j)
                for i in range(top + 1, m)
                for j in range(top + 1, n)
                if work[i][j] % p != 0
            ),
            None,
        )
        if offender is not None:
            oi, _ = offender
            work[top] = [a + b for a, b in zip(work[top], work[oi])]
            continue_outer = True
        else:
            continue_outer = False
        if continue_outer:
            continue
        diag.append(p)
        top += 1
    return diag


def lattice_normalized_volume(edge_rows: Sequence[Sequence[int]]) -> int:
    """Normalized volume of the simplex spanned by integer edge vectors.

    For k independent integer vectors in Z^n this is the index-style volume
    relative to the k-dimensional lattice they span: the product of the
    invariant factors of the edge matrix. For k == n it equals |det|.
    """
    diag = snf_diagonal(edge_rows)
    vol = 1
    for d in diag:
        if d == 0:
            raise ValueError("edge vectors are linearly dependent")
        vol *= d
    return vol
