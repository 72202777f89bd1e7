"""Exact linear algebra in the integers.

Vectors are tuples, matrices are lists of row tuples; no floats anywhere.
Every elimination is one fraction-free Gauss-Jordan, `_echelon`: rows are
scaled to integers and each row operation is divided by the gcd of the new
row, so entries stay no larger than in Bareiss's elimination (Math. Comp.
22, 1968). Rows may be rational; everything read off the elimination is
an integer. `rank` counts its pivots, `nullspace` reads a primitive
integer kernel basis off it, and `solve_integral` reads a regular square
system's solution off it over one common denominator. `simplex_solve` is
the one (cached) barycentric solve of a simplex; placing triangulations,
half-open cone pieces and fundamental parallelepipeds all read it. The
one Smith reduction, `smith_form`, returns the invariant factors with the
unimodular column transform: cone boxes are listed from both, lattice
walks of embedded polytopes take their coordinates from the transform,
and lattice volumes read the factors alone. Ambient dimensions here stay
small (16 for the Birkhoff polytope B4), so cubic elimination and Smith
reduction are more than fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import InputError


def int_dot(u: Sequence, v: Sequence) -> int | Fraction:
    """Dot product with no Fraction conversion: an int on integer data, and
    exact on mixed int and Fraction data."""
    return sum(map(mul, u, v))


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


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0} for the matrix with the given rational rows.

    One primitive integer vector per free column f of the echelon form,
    positive at f: lcm(pivots) e_f minus, at each pivot column, the pivot
    row's entry in f scaled by lcm(pivots) / pivot, divided by its gcd.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("nullspace of an empty matrix needs explicit ncols")
        ncols = len(rows[0])
    echelon, pivots = _echelon(rows)
    step = lcm(*(row[c] for row, c in zip(echelon, pivots)))
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[f] = step
        for row, c in zip(echelon, pivots):
            v[c] = -row[f] * (step // row[c])
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def solve_integral(rows: Sequence[Sequence],
                   rhs: Sequence) -> tuple[tuple[int, ...], int] | None:
    """The solution of a square system A y = b over the integers, in integers.

    Returns (Y, L) with y = Y / L and L > 0, or None when A is singular.
    The fraction-free elimination of [A | b] leaves rows (p_i e_i | q_i),
    so y_i = q_i / p_i, and L is the lcm of the p_i.
    """
    echelon, pivots = _echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(len(rows))):
        return None
    den = lcm(*(row[i] for i, row in enumerate(echelon)))
    return tuple(row[-1] * (den // row[i]) for i, row in enumerate(echelon)), den


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


def smith_form(columns: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Smith normal form of the integer matrix A whose columns are given.

    Returns (d, V): the nonnegative invariant factors d_1 | d_2 | ..., zeros
    included, min(nrows, ncols) of them, and the unimodular k x k column
    transform V (a list of rows, k the number of columns) with U A V = D for
    some unimodular U that is not formed. So column i of A V is d_i times
    column i of U^-1: for independent columns, the (A V)_i / d_i are a basis
    of the lattice points of their span.

    Works on A's transpose, whose rows are the columns: its row operations
    are A's column operations and are applied to V's transpose as well; its
    column operations are A's row operations, the part of U, and are not
    recorded. Each step takes a nonzero entry of least absolute value in
    the remaining block as pivot and reduces its row and column by it; a
    remainder, or an entry of the block that the pivot does not divide
    (brought into the pivot row by adding its row), gives a smaller pivot.
    A pivot of 1 divides everything, so it ends the search and the step.
    """
    work = [list(map(int, col)) for col in columns]
    k = len(work)
    n = len(work[0]) if k else 0
    vt = [[int(i == j) for j in range(k)] for i in range(k)]
    diag: list[int] = []
    for top in range(min(k, n)):
        while True:
            least, pi, pj = 0, top, top
            for i in range(top, k):
                row = work[i]
                for j in range(top, n):
                    if row[j] and (not least or abs(row[j]) < least):
                        least, pi, pj = abs(row[j]), i, j
                if least == 1:
                    break
            if not least:
                return diag + [0] * (min(k, n) - top), [tuple(r) for r in zip(*vt)]
            work[top], work[pi] = work[pi], work[top]
            vt[top], vt[pi] = vt[pi], vt[top]
            if pj != top:
                for row in work:
                    row[top], row[pj] = row[pj], row[top]
            pivot_row, p = work[top], work[top][top]
            remainder = False
            for i in range(top + 1, k):
                q = work[i][top] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], pivot_row)]
                    vt[i] = [a - q * b for a, b in zip(vt[i], vt[top])]
                remainder = remainder or work[i][top] != 0
            for j in range(top + 1, n):
                q = pivot_row[j] // p
                if q:
                    for row in work:
                        row[j] -= q * row[top]
                remainder = remainder or pivot_row[j] != 0
            if remainder:
                continue
            if least == 1:
                break
            offender = next((i for i in range(top + 1, k)
                             if any(v % p for v in work[i][top + 1:])), None)
            if offender is None:
                break
            work[top] = [a + b for a, b in zip(pivot_row, work[offender])]
            vt[top] = [a + b for a, b in zip(vt[top], vt[offender])]
        diag.append(least)
    return diag, [tuple(r) for r in zip(*vt)]


def lattice_normalized_volume(edge_rows: Sequence[Sequence[int]]) -> int:
    """Normalized volume of the simplex spanned by integer edge vectors.

    For k independent integer vectors in Z^n this is the index-style volume
    relative to the k-dimensional lattice they span: the product of the
    invariant factors of the edge matrix, which it shares with its
    transpose, so the rows go to `smith_form` as its columns. For k == n it
    equals |det|.
    """
    diag = smith_form(edge_rows)[0]
    vol = 1
    for d in diag:
        if d == 0:
            raise ValueError("edge vectors are linearly dependent")
        vol *= d
    return vol
