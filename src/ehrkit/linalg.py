"""Exact linear algebra in the integers.

Vectors are tuples, matrices are lists of row tuples; no floats anywhere.
Every elimination is one fraction-free Gauss-Jordan, `_echelon`: rows are
scaled to integers and each row operation is divided by the gcd of the new
row, so entries stay no larger than in Bareiss's elimination (Math. Comp.
22, 1968). Rows may be rational; everything read off the elimination is
an integer. `rank` counts its pivots, `nullspace` reads a primitive
integer kernel basis off it, and `solve_integral` reads a regular square
system's solution off it over one common denominator. `simplex_solve` is
the one barycentric solve of a simplex, kept in one bounded LRU cache;
placing triangulations, half-open cone pieces and fundamental
parallelepipeds all read it. Placing makes each cell's solve from one it
holds, in time quadratic in the ambient dimension where the elimination is
cubic: `exchange_solve` pivots a neighbour's solve onto the cell's new
generator, and `jump_solve` extends a solve by a generator outside its
span, from the empty configuration's on. Only a non-integer new generator
is eliminated. The one Smith reduction, `smith_form`, returns the
invariant factors with the unimodular column transform: cone boxes are
listed from both, lattice walks of embedded polytopes take their
coordinates from the transform, and lattice volumes read the factors
alone. `lll` reduces a lattice basis under an integer quadratic form, in
integers only; the walks take their free coordinates from it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

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


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0} for the matrix with the given rational rows.

    One primitive integer vector per free column f of the echelon form,
    positive at f: lcm(pivots) e_f minus, at each pivot column, the pivot
    row's entry in f scaled by lcm(pivots) / pivot, divided by its gcd.
    """
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
                   rhs: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """The solution Y / L, L > 0, of a square system A Y = B whose rows of B
    are `rhs`, as (Y, L) in integers, or None when A is singular. The
    fraction-free elimination of [A | B] leaves rows (p_i e_i | q_i), so
    Y_i = q_i L / p_i for L the lcm of the p_i."""
    k = len(rows)
    echelon, pivots = _echelon([list(row) + list(b) for row, b in zip(rows, rhs)])
    if pivots[:k] != list(range(k)):
        return None
    den = lcm(*(row[i] for i, row in enumerate(echelon)))
    return tuple(tuple(v * (den // row[i]) for v in row[k:])
                 for i, row in enumerate(echelon)), den


# The one solve cache, least recently used first. Only cells add entries:
# placing makes each cell's solve once, by an exchange pivot or a jump
# extension (by elimination only for a non-integer vector), and the hull,
# the faces and the cone pieces look it up again.
# One B4 hull and triangulation keeps 938 entries, a `corpus-verify` run
# under 200.
_solves: dict = {}
_MAX_SOLVES = 2048
_hits = _misses = 0
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


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
    generators are nonempty, of one length and independent. Solves are
    cached; `cache_info()` and `cache_clear()` work as for `lru_cache`.
    """
    global _hits, _misses
    solve = _solves.pop(generators, None)
    if solve is None:
        _misses += 1
        solve = _eliminate(generators)
    else:
        _hits += 1
    _keep(generators, solve)
    return solve


def exchange_solve(generators: tuple[tuple, ...], solve: tuple, apex: int):
    """`simplex_solve(generators)`, where the generators are those of a
    solved simplex with its generator at position `apex` dropped and a new
    one, q, appended; `solve` is that simplex's solve, and its apex row must
    not vanish at q.

    A cache miss on an integer q is filled by one exchange pivot instead of
    an elimination. With s = <T_apex, q> and t_j = <T_j, q>, the
    coefficient of q in x is <T_apex, x> / s, and that of each kept
    generator j is <t_j T_apex - s T_j, x> / (-s den_j). Each row divided
    by the gcd of its entries and den, and signed to den > 0, is the reduced
    row that the elimination reads off; the span, hence C, is unchanged.
    """
    return _derived(generators, solve, _exchanged, apex)


def jump_solve(generators: tuple[tuple, ...], solve: tuple):
    """`simplex_solve(generators)`, where the generators are those of a
    solved simplex and a new one, q, outside their span; `solve` is that
    simplex's solve, ((), the unit rows) for no generators.

    A cache miss on an integer q is filled by extending the rational rref of
    [G | I] to that of [G q | I]. With s_j = <C_j, q>, j* the last j with
    s_j != 0, c = C_j* and s = s_j*: q's row is c / s, each old row (r, d)
    becomes (s r - <r, q> c) / (s d), and each other C row
    sign(s) (s C_j - s_j c), all reduced. c is zero before its leading
    entry, which follows those of the C_j with j < j*, so these keep their
    leading entries, their order and their signs.
    """
    return _derived(generators, solve, _extended)


def _derived(generators: tuple[tuple, ...], solve: tuple, derive, *args):
    """The cached solve, else `derive(q, *solve, *args)` for an integer q."""
    global _hits, _misses
    found = _solves.pop(generators, None)
    if found is not None:
        _hits += 1
    elif all(type(v) is int for v in generators[-1]):
        _misses += 1
        found = derive(generators[-1], *solve, *args)
    else:
        return simplex_solve(generators)
    _keep(generators, found)
    return found


def _exchanged(q: tuple[int, ...], t_rows: tuple, c_rows: tuple, apex: int) -> tuple:
    top = t_rows[apex][0]
    s = int_dot(top, q)
    rows = []
    for j, (row, den) in enumerate(t_rows):
        if j != apex:
            t = int_dot(row, q)
            rows.append(_reduced([t * a - s * b for a, b in zip(top, row)], -s * den))
    rows.append(_reduced([-a for a in top], -s))
    return tuple(rows), c_rows


def _extended(q: tuple[int, ...], t_rows: tuple, c_rows: tuple) -> tuple:
    sums = [int_dot(row, q) for row in c_rows]
    star = max(j for j, s_j in enumerate(sums) if s_j)
    c, s = c_rows[star], sums[star]
    rows = [_reduced([s * a - int_dot(row, q) * b for a, b in zip(row, c)], s * den)
            for row, den in t_rows]
    rows.append(_reduced(list(c), s))
    sign = 1 if s > 0 else -1
    span = []
    for row, s_j in zip(c_rows[:star], sums):  # the rows after c have s_j == 0
        new = [sign * (s * a - s_j * b) for a, b in zip(row, c)]
        g = gcd(*new)
        span.append(tuple(v // g for v in new))
    return tuple(rows), (*span, *c_rows[star + 1:])


def _reduced(row: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(row, den) divided by their gcd, with the sign that makes den > 0."""
    g = gcd(*row, den) if den > 0 else -gcd(*row, den)
    return tuple(v // g for v in row), den // g


def _keep(generators: tuple[tuple, ...], solve: tuple) -> None:
    _solves[generators] = solve
    if len(_solves) > _MAX_SOLVES:
        del _solves[next(iter(_solves))]


def _cache_info() -> tuple:
    return _CacheInfo(_hits, _misses, _MAX_SOLVES, len(_solves))


def _cache_clear() -> None:
    global _hits, _misses
    _solves.clear()
    _hits = _misses = 0


simplex_solve.cache_info = _cache_info
simplex_solve.cache_clear = _cache_clear


def _eliminate(generators: tuple[tuple, ...]) -> tuple:
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
    equals |det|.
    """
    diag = smith_form(edge_rows)[0]
    vol = 1
    for d in diag:
        if d == 0:
            raise ValueError("edge vectors are linearly dependent")
        vol *= d
    return vol
