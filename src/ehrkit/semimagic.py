"""Square matrices with equal row and column sums, counted exactly.

H_n(r) counts n-by-n matrices of nonnegative integers whose rows and
columns all sum to r. The matrix is split into its top min(2, n) rows and
the rest, at most two rows each since n <= 4: H_n(r) is the sum over the
column sums c of the top half of T_top(c) * T_bottom(r - c), where T_k(v)
counts the k-row halves with row sums r and column sums v. T_0(v) is
[v = 0], T_1 is 1, and a two-row half is fixed by its first row, whose
choices 0 <= x_j <= v_j with sum r are counted by inclusion-exclusion.
Both factors are symmetric in c, so c runs over nonincreasing tuples, each
weighted by its number of distinct rearrangements.

The sum has one term when n <= 2 (c = (r) or (r, r)), so H_1 = 1 and
H_2(r) = r + 1 are returned as they stand. For n = 3 and 4 one loop nest
counts: three flat loops run over c padded to four columns with zeros (a
column bound of 0 leaves a half's count alone), and the rearrangement
weight is read from a table by which neighbouring parts of c are equal.
A two-row half is an inclusion-exclusion over the sets of columns j with
x_j > c_j, each term read from one list of C(m + 3, 3), m <= r, built
per count; as c sums to 2r, at most nine sets can have a nonzero term.
At n = 4 the bottom's column sums r - c, sorted, are a c the loops also
visit, so each such pair of tuples is counted once. The loops visit about
r^3 / 36 tuples at n = 4 and r^2 / 12 at n = 3; a count or `adg_report`
table estimated above MAX_TUPLES of them raises `UnsupportedError`
before counting, and so does a report of more than
`report.MAX_REPORT_ROWS` rows, the only bound at n <= 2, where each count
is one term.

These counts are polynomial in r, vanish at r = -1..-(n-1), satisfy a
reflection symmetry, and have a palindromic nonnegative series numerator
over (1-x)^(n^2-2n+2). `adg_report` verifies all of that from the computed
table: it convolves the table with (1-x)^(n^2-2n+2) in integers and reads
the polynomial back off that numerator in the binomial basis. The same
numbers arise geometrically: H_n is the lattice-point counter of the
polytope of doubly stochastic matrices, whose vertices are the
permutation matrices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .errors import FrozenRecord, InputError, UnsupportedError
from .polytope import RationalPolytope
from .ratpoly import check_int, hstar_from_counts, quasi_from_numerator
from .report import Report, check_rows

MAX_SIZE = 4
# Column-sum tuples a count or table may visit. On a 2-vCPU VM (Python
# 3.11.7) the largest tables accepted, `ehrkit semimagic` with --n 4 --rmax
# 107 or --n 3 --rmax 328, take 1.2-2.0 s, and the largest counts, H_4(329)
# and H_3(3462), 1.4 and 2.2 s.
MAX_TUPLES = 1_000_000


def _check_size(n) -> None:
    check_int(n, "matrix size")
    if not 1 <= n <= MAX_SIZE:
        raise UnsupportedError(
            f"matrix size {n} is outside the supported range 1..{MAX_SIZE}"
        )


def _tuples(n: int, r: int) -> int:
    """About how many column-sum tuples the count of H_n(r), n >= 3, visits:
    the C(2r+n-1, n-1) - n C(r+n-2, n-1) tuples in [0, r]^n with sum 2r
    over their n! orders (ties put the true number a few percent higher)."""
    return (comb(2 * r + n - 1, n - 1) - n * comb(r + n - 2, n - 1)) // factorial(n)


def _check_reach(what: str, tuples: int) -> None:
    if tuples > MAX_TUPLES:
        raise UnsupportedError(
            f"{what} visits about {tuples:,} column-sum tuples, over the "
            f"limit of {MAX_TUPLES:,}"
        )


def _rearrangements(n: int, ties: int) -> int:
    """Distinct orders of a nonincreasing n-tuple whose parts j and j + 1
    are equal where bit j of `ties` is set: n! over each run length's
    factorial."""
    weight, run = factorial(n), 1
    for j in range(n - 1):
        run = run + 1 if ties >> j & 1 else 1
        weight //= run
    return weight


# _WEIGHTS[n][ties] for the three adjacent ties of a padded c
_WEIGHTS = {n: [_rearrangements(n, ties) for ties in range(8)] for n in (3, 4)}


def _parts(rest: int, cap: int, k: int) -> range:
    """Largest part of the nonincreasing k-tuples in [0, cap] summing to rest."""
    return range(min(cap, rest), -(-rest // k) - 1, -1)


def _two_rows(c0: int, c1: int, c2: int, c3: int, r: int, binom: list[int]) -> int:
    """T_2(c) for nonincreasing c summing to 2r: first rows x <= c with sum r.

    binom[m] is C(m + 3, 3). The inclusion-exclusion term of a set S of
    columns is (-1)^|S| binom[r - sum over S of (c_j + 1)]; sets are grown
    smallest mass first and pruned once that mass passes r. A set and its
    complement have masses summing to 2r + 4, so at most one stays within
    r: no three columns do, nor the pairs {0, 1} and {0, 2}, whose masses
    are at least their complements'.
    """
    t = binom[r]
    m3 = r - c3 - 1
    if m3 >= 0:
        t -= binom[m3]
        m2 = r - c2 - 1
        if m2 >= 0:
            t -= binom[m2]
            if m2 > c3:
                t += binom[m2 - c3 - 1]
            m1 = r - c1 - 1
            if m1 >= 0:
                t -= binom[m1]
                if m1 > c3:
                    t += binom[m1 - c3 - 1]
                    if m1 > c2:
                        t += binom[m1 - c2 - 1]
                m0 = r - c0 - 1
                if m0 >= 0:
                    t -= binom[m0]
                    if m0 > c3:
                        t += binom[m0 - c3 - 1]
    return t


# One int per (n, r); `adg_report` tables and the B_n bridge ask for a few
# dozen line sums per size. Typed, so that 2.0 or True never hits the entry
# of 2 or 1 and the checks inside always run.
@lru_cache(maxsize=1024, typed=True)
def count_semimagic(n: int, r: int) -> int:
    """Number of n-by-n nonnegative integer matrices with all line sums r."""
    _check_size(n)
    check_int(r, "line sum")
    if r < 0:
        raise InputError("line sum must be nonnegative")
    if n <= 2:
        return 1 if n == 1 else r + 1
    _check_reach(f"H_{n}({r})", _tuples(n, r))
    binom = [(m + 1) * (m + 2) * (m + 3) // 6 for m in range(r + 1)]
    weights = _WEIGHTS[n]
    total = 0
    s = 2 * r
    # c = (c0, c1, c2, c3) runs over the nonincreasing column sums of the top
    # two rows; c3 is 0 when n = 3, and the bottom row is then r - c
    for c0 in _parts(s, r, n):
        for c1 in _parts(s - c0, c0, n - 1):
            rest = s - c0 - c1
            for c2 in _parts(rest, c1, n - 2):
                c3 = rest - c2
                term = weights[(c0 == c1) | (c1 == c2) << 1 | (c2 == c3) << 2]
                if n == 4:
                    # the bottom's column sums, sorted, are a c of the same
                    # weight with this c as its bottom: count each pair once
                    bottom = (r - c3, r - c2, r - c1, r - c0)
                    top = (c0, c1, c2, c3)
                    if bottom < top:
                        continue
                    term *= _two_rows(*bottom, r, binom) * (1 if bottom == top else 2)
                total += term * _two_rows(c0, c1, c2, c3, r, binom)
    return total


class SemimagicTable(FrozenRecord):
    """Count table with its polynomial and series numerator.

    `values` holds H_n(r) for r = 0..len-1, `count_poly` is the degree
    (n-1)^2 polynomial through the table, and `numerator` is the series
    numerator over (1-x)^(n^2-2n+2).
    """

    __slots__ = _fields = ("n", "values", "count_poly", "numerator")


def adg_report(n: int, rmax: int | None = None) -> tuple[SemimagicTable, Report]:
    """Count table for H_n plus verification of its structural properties.

    Checks, from the exact table: the counts are polynomial of degree
    (n-1)^2 (the integer series numerator's guard terms vanish, and the
    polynomial read off that numerator matches the spare values), the
    polynomial vanishes at -1..-(n-1), the reflection
    H_n(-r) = (-1)^(n-1) H_n(r-n) holds, and the series numerator over
    (1-x)^(n^2-2n+2) is palindromic of degree n^2-3n+2 with nonnegative
    integer coefficients.
    """
    _check_size(n)
    poly_degree = (n - 1) ** 2
    if rmax is None:
        rmax = poly_degree + 3
    check_int(rmax, "rmax")
    if rmax < poly_degree + 3:
        raise InputError(f"need rmax >= {poly_degree + 3} for verification slack")
    if n >= 3:
        # the sum of _tuples(n, r) over r <= rmax, as the integral of a
        # polynomial of degree n - 1
        _check_reach(f"H_{n}(r) for r <= {rmax}",
                     (rmax + 1) * _tuples(n, rmax + 1) // n)
    # polynomiality from poly_degree + 1, n - 1 roots, reflection from 1, and
    # the three numerator rows
    check_rows(f"H_{n}(r) report for r <= {rmax}", 2 * rmax - poly_degree + n + 2)
    values = tuple(count_semimagic(n, r) for r in range(rmax + 1))
    # poly_degree is also the series dimension n^2 - 2n + 1; the guard terms
    # past the numerator certify the table before any property is read
    numerator_h = hstar_from_counts(values, dim=poly_degree)
    count_poly = quasi_from_numerator(numerator_h.coeffs, poly_degree, 1).constituents[0]
    instances = []
    for r in range(poly_degree + 1, rmax + 1):
        predicted = count_poly.evaluate(r)
        instances.append({
            "property": "polynomiality", "index": r,
            "lhs": str(predicted), "rhs": values[r],
            "pass": predicted == values[r],
        })
    for k in range(1, n):
        at_root = count_poly.evaluate(-k)
        instances.append({
            "property": "root", "index": -k, "lhs": str(at_root), "rhs": 0,
            "pass": at_root == 0,
        })
    sign = (-1) ** (n - 1)
    for r in range(1, rmax + 1):
        lhs = count_poly.evaluate(-r)
        rhs = sign * count_poly.evaluate(r - n)
        instances.append({
            "property": "reflection", "index": r, "lhs": str(lhs), "rhs": str(rhs),
            "pass": lhs == rhs,
        })
    numerator = numerator_h.poly()
    expected_degree = n * n - 3 * n + 2
    instances.append({
        "property": "numerator-degree", "index": None,
        "lhs": numerator.degree(), "rhs": expected_degree,
        "pass": numerator.degree() == expected_degree,
    })
    instances.append({
        "property": "numerator-palindromic", "index": None,
        "lhs": numerator_h.to_strings(), "rhs": None,
        "pass": numerator.is_palindromic(expected_degree),
    })
    instances.append({
        "property": "numerator-nonnegative-integral", "index": None,
        "lhs": numerator_h.to_strings(), "rhs": None,
        "pass": numerator_h.is_integral_nonnegative(),
    })
    table = SemimagicTable(n, values, count_poly, numerator)
    report = Report.from_instances(
        "equal-line-sum-count-structure", instances,
        notes={"n": n, "rmax": rmax, "denominator_exponent": poly_degree + 1},
    )
    return table, report


def birkhoff_polytope(n: int) -> RationalPolytope:
    """Polytope of doubly stochastic n-by-n matrices, flattened row-major.

    Vertices are the n! permutation matrices. It has dimension (n-1)^2 in
    R^(n^2), and every coordinate lies in a line-sum equality, so it is
    counted in lattice coordinates of its affine hull: `ehrhart` of B4
    walks 9 free coordinates through dilates 1..10. Kept to n <= 4: B5 has
    dimension 16, and its Ehrhart window runs to dilate 17, where H_5(17)
    is about 9.8e13 lattice points.
    """
    check_int(n, "matrix size")
    if n < 1:
        raise UnsupportedError(f"doubly-stochastic polytopes need n >= 1, got {n}")
    if n > 4:
        raise UnsupportedError(
            f"doubly-stochastic polytope geometry is supported for n <= 4, got {n}: "
            f"B{n} has dimension {(n - 1) ** 2}, and counting its Ehrhart window "
            f"of dilates 1..{(n - 1) ** 2 + 1} is out of reach (B5 at dilate 17 "
            f"alone has about 9.8e13 lattice points)"
        )
    points = []
    for perm in permutations(range(n)):
        flat = [0] * (n * n)
        for i, j in enumerate(perm):
            flat[i * n + j] = 1
        points.append(tuple(flat))
    return RationalPolytope.from_points(points, name=f"doubly-stochastic-{n}")
