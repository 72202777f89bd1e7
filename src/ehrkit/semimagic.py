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

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

from .errors import FrozenRecord, InputError, UnsupportedError, _set_field
from .polytope import RationalPolytope
from .ratpoly import Poly, hstar_from_counts, quasi_from_numerator
from .report import Report

MAX_SIZE = 4


def _nonincreasing(total: int, parts: int, cap: int):
    """Nonincreasing tuples of `parts` integers in [0, cap] summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -((-total) // parts) - 1, -1):
        for rest in _nonincreasing(total - first, parts - 1, first):
            yield (first,) + rest


def _rows_with_column_sums(rows: int, columns: tuple[int, ...], r: int) -> int:
    """Number of `rows`-by-n nonnegative matrices with row sums r and the
    given column sums, which add up to rows * r; rows is 0, 1 or 2.

    Two rows: the first row x is free in 0 <= x_j <= columns[j] with sum r
    (the second is columns - x), counted by inclusion-exclusion over the
    sets S of columns where x_j exceeds its bound.
    """
    if rows == 0:
        return int(not any(columns))
    if rows == 1:
        return 1
    n = len(columns)
    total = 0
    for size in range(n + 1):
        for subset in combinations(columns, size):
            left = r - sum(c + 1 for c in subset)
            if left >= 0:
                total += (-1) ** size * comb(left + n - 1, n - 1)
    return total


# One int per (n, r); `adg_report` tables and the B_n bridge ask for a few
# dozen line sums per size.
@lru_cache(maxsize=1024)
def count_semimagic(n: int, r: int) -> int:
    """Number of n-by-n nonnegative integer matrices with all line sums r."""
    if not 1 <= n <= MAX_SIZE:
        raise UnsupportedError(
            f"matrix size {n} is outside the supported range 1..{MAX_SIZE}"
        )
    if r < 0:
        raise InputError("line sum must be nonnegative")
    top = min(2, n)
    total = 0
    # T_k(v) by (k, v). At n = 4 both halves have two rows, and the bottom's
    # column sums r - c, sorted, are a c that the loop also visits.
    halves: dict[tuple[int, tuple[int, ...]], int] = {}
    # c runs over the column sums of the top rows; both halves are symmetric
    # in c, so each multiset of column sums is counted once with its weight
    for c in _nonincreasing(top * r, n, r):
        weight = factorial(n)
        for repeat in Counter(c).values():
            weight //= factorial(repeat)
        bottom = tuple(r - v for v in reversed(c))  # nonincreasing, as c is
        for key in ((top, c), (n - top, bottom)):
            if key not in halves:
                halves[key] = _rows_with_column_sums(*key, r)
        total += weight * halves[top, c] * halves[n - top, bottom]
    return total


class SemimagicTable(FrozenRecord):
    """Count table with its polynomial and series numerator.

    `values` holds H_n(r) for r = 0..len-1, `count_poly` is the degree
    (n-1)^2 polynomial through the table, and `numerator` is the series
    numerator over (1-x)^(n^2-2n+2).
    """

    __slots__ = _fields = ("n", "values", "count_poly", "numerator")

    def __init__(self, n: int, values: tuple[int, ...], count_poly: Poly,
                 numerator: Poly):
        _set_field(self, "n", n)
        _set_field(self, "values", values)
        _set_field(self, "count_poly", count_poly)
        _set_field(self, "numerator", numerator)


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
    if not 1 <= n <= MAX_SIZE:
        raise UnsupportedError(
            f"matrix size {n} is outside the supported range 1..{MAX_SIZE}"
        )
    poly_degree = (n - 1) ** 2
    if rmax is None:
        rmax = poly_degree + 3
    if rmax < poly_degree + 3:
        raise InputError(f"need rmax >= {poly_degree + 3} for verification slack")
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
