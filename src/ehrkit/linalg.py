"""Exact linear algebra over the rationals and the integers.

Vectors are tuples, matrices are lists of row tuples. Everything runs on
`fractions.Fraction` (or plain int where the data is integral); no floats
anywhere. The routines here are deliberately small-scale: ambient dimensions
in this package stay in the single digits, so cubic Gaussian elimination and
Smith reduction are more than fast enough. `simplex_solve` is the one
(cached) barycentric solve of a simplex; placing triangulations, half-open
cone pieces and fundamental parallelepipeds all read it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import InputError

Vec = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) - b for a, b in zip(u, v))


def row_reduce(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.

    Returns (rref_rows, pivot_columns). Zero rows are dropped, so
    len(rref_rows) == rank.
    """
    work = [list(map(Fraction, r)) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b if b else a for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(row_reduce(rows)[0])


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
    rows with C x = 0 exactly when x lies in the generators' span. Both are
    read off the reduced row echelon form of [G | I], where G is the
    ambient x k matrix whose columns are the generators: its first k rows
    give the coefficient solve, the remaining rows the span-membership test.
    Raises InputError unless the generators are nonempty and independent.
    """
    if not generators:
        raise InputError("a simplex needs at least one generator")
    k = len(generators)
    n = len(generators[0])
    aug = [[Fraction(generators[i][j]) for i in range(k)]
           + [Fraction(1 if jj == j else 0) for jj in range(n)]
           for j in range(n)]
    rref, pivots = row_reduce(aug)
    if pivots[:k] != list(range(k)):
        raise InputError("generators of a simplex must be independent")
    t_rows = []
    for row in rref[:k]:
        den = lcm(*(v.denominator for v in row[k:]))
        t_rows.append((tuple(int(v * den) for v in row[k:]), den))
    c_rows = tuple(primitive(row[k:]) for row in rref[k:])
    return tuple(t_rows), c_rows


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
