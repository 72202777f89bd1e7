"""Exact linear algebra in the integers.

Vectors are tuples, matrices are lists of row tuples; no floats anywhere.
Every solve is made by two integer updates, each quadratic in the ambient
dimension: `jump_solve` extends the solves of one span by an integer vector
outside it, making the span's new rows once, and `exchange_solve` pivots a
solve onto a new integer generator. Placing makes each cell's solve by one
of them and hands it to the hull, the cone pieces and the parallelepipeds.
The one elimination folds `jump_solve` over a list of vectors from the empty
configuration's solve, skipping each vector in the span so far:
`simplex_solve` is that fold, `rank` counts its jumps and `solve_integral`
folds a square system's columns. `smith_form` (the invariant factors and a
unimodular column transform), `lll` (a lattice basis reduced under an
integer quadratic form) and the Bareiss determinant of
`lattice_normalized_volume` compute invariants, not solves: cone boxes are
listed from the Smith form, and the walks of polytopes take their
coordinates from its transform and from `lll`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError


def int_dot(u: Sequence, v: Sequence) -> int | Fraction:
    """Dot product with no Fraction conversion: an int on integer data, and
    exact on mixed int and Fraction data."""
    return sum(map(mul, u, v))


def empty_solve(n: int) -> tuple:
    """The solve of the empty configuration in R^n: no T rows, and the unit
    rows as C, so that every nonzero vector lies outside its span."""
    return (), tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _jumps(vectors: Sequence[Sequence[int]], n: int) -> tuple:
    """The solve of the integer vectors of length n that raise the span as
    they come: `jump_solve` from the empty configuration's solve, each
    vector in the span of those before it skipped. Its T rows are those of
    the vectors kept, in order; once the C rows run out, nothing more can
    jump."""
    solve = empty_solve(n)
    for q in vectors:
        if not solve[1]:
            break
        if any(int_dot(row, q) for row in solve[1]):
            solve = jump_solve(q, [solve])[0]
    return solve


def rank(rows: Sequence[Sequence]) -> int:
    """The rank of rational rows: the jumps among them, each row that holds
    a non-integer entry first scaled to integers."""
    ints = [row if all(isinstance(v, int) for v in row)
            else _scaled(row) for row in rows]
    return len(_jumps(ints, len(ints[0]))[0]) if ints else 0


def _scaled(row: Sequence) -> list[int]:
    """A rational row times the lcm of its entries' denominators."""
    scale = lcm(*(Fraction(v).denominator for v in row))
    return [int(v * scale) for v in row]


def solve_integral(rows: Sequence[Sequence[int]],
                   rhs: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """The solution Y / L, L > 0, of a square integer system A Y = B whose
    rows of B are `rhs`, as (Y, L) in integers, or None when A is singular.
    A's columns are the jumps' vectors, so Y_i = <T_i, B> / den_i, and L is
    the lcm of the den_i."""
    k = len(rows)
    t_rows = _jumps(list(zip(*rows)), k)[0]
    if len(t_rows) < k:
        return None
    den = lcm(*(d for _, d in t_rows))
    return tuple(tuple(int_dot(row, b) * (den // d) for b in zip(*rhs))
                 for row, d in t_rows), den


def simplex_solve(generators: tuple[tuple[int, ...], ...]):
    """Barycentric solve of independent integer vectors: (T, C) in integers.

    T is a tuple of (row, den) pairs with den > 0, so that the coefficient
    of generators[i] in x is <T_i, x> / den_i, and C a tuple of primitive
    rows with positive leading entries, C x = 0 exactly when x lies in the
    generators' span: the reduced rows of the rational rref of [G | I], G
    the ambient x k matrix whose columns are the generators, made by one
    `jump_solve` per generator. Raises InputError unless the generators are
    nonempty integer vectors of one length, each outside the span of those
    before it.
    """
    if not generators:
        raise InputError("a simplex needs at least one generator")
    k, n = len(generators), len(generators[0])
    if any(len(g) != n for g in generators):
        raise InputError("generators with mixed ambient dimensions")
    if not all(isinstance(v, int) for g in generators for v in g):
        raise InputError("generators of a simplex must be integer vectors")
    solve = _jumps(generators, n)
    if len(solve[0]) < k:
        raise InputError("generators of a simplex must be independent")
    return solve


def exchange_solve(q: tuple[int, ...], solve: tuple, apex: int):
    """The solve of a simplex made from a solved one by dropping its
    generator at position `apex` and appending the integer vector q:
    `solve` is the solved simplex's, and its apex row must not vanish at q.

    One exchange pivot: with s = <T_apex, q> and t_j = <T_j, q>, the
    coefficient of q in x is <T_apex, x> / s, and that of each kept
    generator j is <t_j T_apex - s T_j, x> / (-s den_j). Each row divided by
    the gcd of its entries and den, and signed to den > 0, is the reduced
    row that `simplex_solve` reads off; the span, hence C, is unchanged.
    """
    t_rows, c_rows = solve
    top = t_rows[apex][0]
    s = int_dot(top, q)
    rows = []
    for j, (row, den) in enumerate(t_rows):
        if j != apex:
            t = int_dot(row, q)
            rows.append(_reduced([t * a - s * b for a, b in zip(top, row)], -s * den))
    rows.append(_reduced([-a for a in top], -s))
    return tuple(rows), c_rows


def jump_solve(q: tuple[int, ...], solves: Sequence[tuple]) -> list[tuple]:
    """The solves of solved simplices that span one space, each extended by
    the integer vector q outside that span: `solves` share their C rows,
    `empty_solve(n)` for no generators, and so do the returned solves.

    Each extends the rational rref of [G | I] to that of [G q | I]. With
    s_j = <C_j, q>, j* the last j with s_j != 0, c = C_j* and s = s_j*:
    q's row is c / s, each old row (r, d) becomes (s r - <r, q> c) / (s d),
    and each other C row sign(s) (s C_j - s_j c), all reduced. c is zero
    before its leading entry, which follows those of the C_j with j < j*,
    so these keep their leading entries, their order and their signs. The
    new C rows and q's row are made once, for every simplex.
    """
    c_rows = solves[0][1]
    sums = [int_dot(row, q) for row in c_rows]
    star = max(j for j, s_j in enumerate(sums) if s_j)
    c, s = c_rows[star], sums[star]
    q_row = _reduced(list(c), s)
    sign = 1 if s > 0 else -1
    span = []
    for row, s_j in zip(c_rows[:star], sums):  # the rows after c have s_j == 0
        new = [sign * (s * a - s_j * b) for a, b in zip(row, c)]
        g = gcd(*new)
        span.append(tuple(v // g for v in new))
    span = (*span, *c_rows[star + 1:])
    made = []
    for t_rows, _ in solves:
        rows = [_reduced([s * a - int_dot(row, q) * b for a, b in zip(row, c)], s * den)
                for row, den in t_rows]
        made.append(((*rows, q_row), span))
    return made


def _reduced(row: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(row, den) divided by their gcd, with the sign that makes den > 0."""
    g = gcd(*row, den) if den > 0 else -gcd(*row, den)
    return tuple(v // g for v in row), den // g


def primitive(vector: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to coprime ints."""
    ints = _scaled(vector)
    g = gcd(*ints)
    if not g:
        raise ValueError("primitive() of the zero vector")
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


def lll(gram: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """LLL reduction (delta = 3/4) of Z^n under the positive definite integer
    Gram matrix `gram`, in integers only (H. Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7).

    Returns (U, W): the rows of the unimodular U are the reduced basis, and
    W = (U^-1)^T, the dual basis, is kept by the inverse row operations. As
    in Cohen, d[i] is the Gram determinant of the first i vectors and
    lam[k][j] = d[j + 1] mu_kj, both integers, so every division is exact.
    """
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [row[:] for row in u]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
            u[k] = [a - q * b for a, b in zip(u[k], u[l])]
            w[l] = [a + q * b for a, b in zip(w[l], w[k])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    if n:
        d[1] = gram[0][0]
    k = k_max = 1  # b_0 .. b_(k_max - 1) have their Gram-Schmidt data
    while k < n:
        if k == k_max:  # that of b_k, still e_k
            k_max += 1
            for j in range(k + 1):
                s = int_dot(gram[k], u[j])
                for i in range(j):
                    s = (d[i + 1] * s - lam[k][i] * lam[j][i]) // d[i]
                lam[k][j] = s
            d[k + 1] = lam[k][k]
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            u[k], u[k - 1], w[k], w[k - 1] = u[k - 1], u[k], w[k - 1], w[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            b = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, k_max):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return u, w


def lattice_normalized_volume(edge_rows: Sequence[Sequence[int]]) -> int:
    """Normalized volume of the simplex spanned by integer edge vectors.

    For k independent integer vectors in Z^n this is the index-style volume
    relative to the k-dimensional lattice they span: the product of the
    invariant factors of the edge matrix, which it shares with its
    transpose, so the rows go to `smith_form` as its columns. For k == n it
    equals |det|, which Bareiss's fraction-free elimination gives at a fifth
    of the cost: each step's entries are 2 x 2 minors divided exactly by the
    previous pivot.
    """
    rows = [list(row) for row in edge_rows]
    vol = 1
    if rows and len(rows) == len(rows[0]):
        prev = 1
        for k in range(len(rows)):
            swap = next((i for i in range(k, len(rows)) if rows[i][k]), None)
            if swap is None:
                vol = 0
                break
            rows[k], rows[swap] = rows[swap], rows[k]
            pivot, top = rows[k][k], rows[k][k + 1:]
            for row in rows[k + 1:]:
                row[k + 1:] = [(a * pivot - row[k] * b) // prev for a, b in zip(row[k + 1:], top)]
            prev = pivot
        else:
            vol = abs(prev)
    else:
        for d in smith_form(rows)[0]:
            vol *= d
    if vol == 0:
        raise ValueError("edge vectors are linearly dependent")
    return vol
