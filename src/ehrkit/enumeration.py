"""Lattice-point enumeration and the Ehrhart counting pipeline.

`_walk` is the one integer point search: it walks the coordinates of a box
depth-first, narrowing each coordinate's range with exact integer interval
arithmetic on integer equalities and inequalities. The ranges are sound at
every depth and exact at the last coordinate, where nothing follows, so
the walk stops there and takes the whole run prefix x [low, high] at once;
no point is re-checked. In the same pass it carries the range of the
interior system, every inequality <a, x> <= c lowered to c - 1, and a
flag saying whether the prefix can still reach it, so one walk gives the
closed and the interior counts as sums of run lengths.

`region_counts` and `count_points` feed it the half-space form of a
dilate and build no points. The half-space data are integers, so for a
lattice point the strict facet inequality <a, x> < c is the same as
<a, x> <= c - 1, and that lowered system is the relative interior. Counts
do not depend on the coordinate order, so the count path walks last the
coordinate along which the polytope has the longest runs. `lattice_points`
lists the points of the same walk by expanding its runs, in the given
coordinate order so that they come out sorted; `enumerate_points` lists a
polytope's points through it. (Fundamental parallelepipeds are not walked:
`cones.parallelepiped_points` lists them from a Smith form.)

`ehrhart` turns dilate counts into the closed and interior counting
quasipolynomials and the h*-numerator over (1 - x^p)^(d+1), with guard-term
and nonnegativity verification baked in: if the counts fail to be
quasipolynomial data of the right degree and period, that is a bug, not a
warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, TheoremViolationError
from .polytope import RationalPolytope
from .ratpoly import HStarData, Poly, QuasiPoly, hstar_from_counts, interpolate
from .report import Report

IntPoint = tuple[int, ...]


def _walk(equalities, inequalities, lo: IntPoint, hi: IntPoint, interior: bool,
          runs: list | None = None) -> tuple[int, int]:
    """Count the integer points of the box lo <= x <= hi in two regions.

    Returns (closed, interior): closed counts the x with <a, x> == c for
    every (a, c) in equalities and <a, x> <= c for every (a, c) in
    inequalities, interior those that also satisfy each inequality with
    c - 1 (0 unless `interior`). When `runs` is given, each closed run is
    appended to it as (prefix, low, high): the points prefix + (v,) for
    low <= v <= high. In ambient dimension 0 there is no last coordinate
    and so no run; the empty point is counted on its own.
    """
    n = len(lo)
    rows = [(a, c, True) for a, c in equalities] + [(a, c, False) for a, c in inequalities]
    closed_bounds = [c for _, c, _ in rows]
    interior_bounds = [c if is_eq else c - 1 for _, c, is_eq in rows]
    # steps[j] holds (row, a_j, min and max of <a, x> over the box coordinates
    # after j, is_eq) for each row whose coefficient a_j is nonzero
    steps: list[list[tuple]] = [[] for _ in range(n)]
    inside = interior
    for k, (a, c, is_eq) in enumerate(rows):
        tail_min = tail_max = 0
        for j in range(n - 1, -1, -1):
            if a[j]:
                steps[j].append((k, a[j], tail_min, tail_max, is_eq))
            tail_min += min(a[j] * lo[j], a[j] * hi[j])
            tail_max += max(a[j] * lo[j], a[j] * hi[j])
        # Up to its first nonzero coefficient a row is decided by the box
        # alone. From there on every chosen value keeps it satisfiable by the
        # rest of the box, so zero coefficients need no test in the walk.
        if tail_min > c or (is_eq and tail_max < c):
            return 0, 0
        bound = interior_bounds[k]
        if tail_min > bound or (is_eq and tail_max < bound):
            inside = False
    if n == 0:
        return 1, int(inside)

    partial = [0] * len(rows)
    prefix = [0] * n
    last = n - 1
    totals = [0, 0]

    def span(depth: int, bounds: list[int]) -> tuple[int, int]:
        """Range of coordinate `depth` left by the partial sums under `bounds`."""
        low, high = lo[depth], hi[depth]
        for k, coef, tail_min, tail_max, is_eq in steps[depth]:
            room = bounds[k] - partial[k]
            if coef > 0:
                top = (room - tail_min) // coef
                if top < high:
                    high = top
                if is_eq:
                    bottom = -((tail_max - room) // coef)
                    if bottom > low:
                        low = bottom
            else:
                bottom = -((tail_min - room) // coef)
                if bottom > low:
                    low = bottom
                if is_eq:
                    top = (room - tail_max) // coef
                    if top < high:
                        high = top
        return low, high

    def walk(depth: int, inside: bool) -> None:
        low, high = span(depth, closed_bounds)
        if low > high:
            return
        if inside:
            inner_low, inner_high = span(depth, interior_bounds)
        if depth == last:
            totals[0] += high - low + 1
            if inside and inner_low <= inner_high:
                totals[1] += inner_high - inner_low + 1
            if runs is not None:
                runs.append((tuple(prefix[:last]), low, high))
            return
        moves = [(k, coef, partial[k]) for k, coef, _, _, _ in steps[depth]]
        for value in range(low, high + 1):
            for k, coef, base in moves:
                partial[k] = base + coef * value
            prefix[depth] = value
            walk(depth + 1, inside and inner_low <= value <= inner_high)
        for k, _, base in moves:
            partial[k] = base

    try:
        walk(0, inside)
    finally:
        del walk  # the closure refers to itself: break that cycle on the way out
    return totals[0], totals[1]


def lattice_points(equalities, inequalities, lo: IntPoint, hi: IntPoint) -> list[IntPoint]:
    """Integer points x of the box lo <= x <= hi, lexicographically sorted,
    with <a, x> == c for every (a, c) in equalities and <a, x> <= c for
    every (a, c) in inequalities. All data must be integers.
    """
    runs: list = []
    closed, _ = _walk(equalities, inequalities, lo, hi, False, runs)
    if not lo:
        return [()] * closed
    # prefixes and values both ascend, so the points come out sorted
    return [prefix + (value,) for prefix, low, high in runs
            for value in range(low, high + 1)]


def _check_region(region: str) -> None:
    if region not in ("closed", "interior"):
        raise InputError(f"unknown region {region!r}")


def enumerate_points(p: RationalPolytope, region: str = "closed") -> list[IntPoint]:
    """All lattice points of p (or of its relative interior), sorted.

    region: 'closed' or 'interior' (interior is relative to the affine hull).
    """
    _check_region(region)
    hrep = p.facets()
    slack = 1 if region == "interior" else 0
    lo, hi = p.bounding_box()
    return lattice_points(hrep.equalities,
                          [(a, c - slack) for a, c in hrep.inequalities], lo, hi)


def _walk_data(p: RationalPolytope):
    """p's equalities, inequalities and vertex extremes, in walk order.

    The walk costs one visit per prefix, so the coordinate with the longest
    runs goes last. A line parallel to axis j meets p in a segment no longer
    than width_a(p) / |a_j| for each facet normal a with a_j != 0, and in
    one point if an equality has a_j != 0; the coordinates are sorted by
    that bound, which scales with the dilate and so orders every dilate
    alike. The extremes are integers over the common denominator `den`.
    """
    hrep = p.facets()
    den = p.vertex_denominator()
    verts = [tuple(x.numerator * (den // x.denominator) for x in v) for v in p.vertices]
    mins = [min(column) for column in zip(*verts)]
    maxs = [max(column) for column in zip(*verts)]
    reach = [Fraction(top - bottom) for bottom, top in zip(mins, maxs)]
    for a, c in hrep.inequalities:
        width = c * den - min(sum(x * y for x, y in zip(a, v)) for v in verts)
        for j, coef in enumerate(a):
            if coef:
                reach[j] = min(reach[j], Fraction(width, abs(coef)))
    for a, _ in hrep.equalities:
        for j, coef in enumerate(a):
            if coef:
                reach[j] = Fraction(0)
    order = sorted(range(p.ambient_dim), key=reach.__getitem__)

    def pick(row):
        return tuple(row[j] for j in order)

    return ([(pick(a), c) for a, c in hrep.equalities],
            [(pick(a), c) for a, c in hrep.inequalities], pick(mins), pick(maxs), den)


def _count_dilate(data, n: int, slack: int, interior: bool) -> tuple[int, int]:
    """`_walk` counts of the n-th dilate (n >= 1) of the `_walk_data` polytope,
    every inequality lowered by `slack`."""
    equalities, inequalities, mins, maxs, den = data
    lo = tuple(-((-n * m) // den) for m in mins)
    hi = tuple(n * m // den for m in maxs)
    return _walk([(a, n * c) for a, c in equalities],
                 [(a, n * c - slack) for a, c in inequalities], lo, hi, interior)


def region_counts(p: RationalPolytope, n: int) -> tuple[int, int]:
    """(closed, interior) lattice-point counts of the n-th dilate, from one walk.

    The interior is relative to the affine hull. The 0-th dilate {0} is its
    own relative interior, so n = 0 gives (1, 1).
    """
    if n < 0:
        raise InputError("dilate index must be nonnegative")
    if n == 0:
        return 1, 1
    return _count_dilate(_walk_data(p), n, 0, True)


def count_points(p: RationalPolytope, n: int, region: str = "closed") -> int:
    """Number of lattice points in the n-th dilate (n >= 0).

    The 0-th dilate is {0}, which is its own relative interior, so n = 0
    counts 1 in both regions. (`EhrhartResult.interior_count(0)` is the
    reciprocity value (-1)^dim instead.)
    """
    if n < 0:
        raise InputError("dilate index must be nonnegative")
    _check_region(region)
    if n == 0:
        return 1
    slack = 1 if region == "interior" else 0
    return _count_dilate(_walk_data(p), n, slack, False)[0]


@dataclass(frozen=True)
class EhrhartResult:
    """Counting data of one polytope: quasipolynomials plus h*-numerator."""

    dim: int
    period: int
    quasi: QuasiPoly
    quasi_interior: QuasiPoly
    hstar: HStarData

    def count(self, n: int) -> Fraction:
        return self.quasi.evaluate(n)

    def interior_count(self, n: int) -> Fraction:
        """The interior counting quasipolynomial at n.

        It counts interior lattice points for n >= 1. It is the reciprocity
        quasipolynomial (-1)^dim count(-n), so at n = 0 it gives (-1)^dim,
        not the 1 that `count_points(p, 0, "interior")` counts.
        """
        return self.quasi_interior.evaluate(n)


@lru_cache(maxsize=None)
def _ehrhart_cached(p: RationalPolytope) -> EhrhartResult:
    d = p.dim
    per = p.vertex_denominator()
    top = per * (d + 2) - 1  # numerator window plus `per` guard terms

    closed_counts: list[int] = [1]
    interior_counts: list[int] = [1]
    data = _walk_data(p)
    for n in range(1, top + 1):
        closed, interior = _count_dilate(data, n, 0, True)
        closed_counts.append(closed)
        interior_counts.append(interior)

    constituents = []
    for r in range(per):
        nodes = [r + per * k for k in range(d + 1)]
        constituents.append(interpolate([(n, closed_counts[n]) for n in nodes]))
    interior_constituents = []
    for r in range(per):
        nodes = [r + per * k for k in range(d + 1)]
        if r == 0:
            nodes = [per * k for k in range(1, d + 2)]
        interior_constituents.append(
            interpolate([(n, interior_counts[n]) for n in nodes])
        )
    quasi = QuasiPoly(per, constituents)
    quasi_interior = QuasiPoly(per, interior_constituents)

    # cross-check the interpolation against every sampled dilate
    for n in range(top + 1):
        if quasi.evaluate(n) != closed_counts[n]:
            raise TheoremViolationError(
                f"closed counts of {p!r} are not degree-{d} period-{per} data"
            )
        if n >= 1 and quasi_interior.evaluate(n) != interior_counts[n]:
            raise TheoremViolationError(
                f"interior counts of {p!r} are not degree-{d} period-{per} data"
            )
    if d >= 1:
        # the dilates of an embedded polytope may miss the lattice, so there
        # a constituent may be zero; the nonzero ones still have degree d
        kept = constituents
        if d < p.ambient_dim:
            kept = [c for c in constituents if c.degree() >= 0]
        leads = {c.coeffs[-1] for c in kept if c.degree() == d}
        if any(c.degree() != d for c in kept) or len(leads) != 1:
            raise TheoremViolationError(
                f"constituents of {p!r} do not share degree {d} and a common volume"
            )

    hstar = hstar_from_counts(closed_counts, dim=d, period=per)
    if hstar.coefficient(0) != 1 or not hstar.is_integral_nonnegative():
        raise TheoremViolationError(
            f"h* numerator of {p!r} is not a nonnegative integer vector "
            f"with constant term 1: {hstar.coeffs}"
        )
    return EhrhartResult(d, per, quasi, quasi_interior, hstar)


def ehrhart(p: RationalPolytope) -> EhrhartResult:
    """Counting quasipolynomials and h*-data of p (cached per polytope)."""
    return _ehrhart_cached(p)


def reciprocity_check(p: RationalPolytope, max_n: int = 8,
                      direct_cap: int = 5) -> Report:
    """Verify count(-n) == (-1)^dim interior_count(n) for n = 1..max_n.

    For n up to direct_cap the interior side is additionally re-counted by
    brute-force enumeration, anchoring the identity to actual geometry.
    """
    if max_n < 1:
        raise InputError("reciprocity needs max_n >= 1")
    res = ehrhart(p)
    sign = (-1) ** res.dim
    instances = []
    for n in range(1, max_n + 1):
        lhs = res.count(-n)
        rhs = sign * res.interior_count(n)
        ok = lhs == rhs
        inst = {"n": n, "lhs": lhs, "rhs": rhs, "pass": ok}
        if n <= direct_cap:
            direct = count_points(p, n, "interior")
            inst["interior_direct"] = direct
            inst["pass"] = ok and res.interior_count(n) == direct
        instances.append(inst)
    return Report.from_instances("count(-n) == (-1)^dim interior_count(n)", instances,
                                 notes={"polytope": p.name or repr(p), "period": res.period})
