"""Lattice-point enumeration and the Ehrhart counting pipeline.

`lattice_points` is the one integer point search: it walks the coordinates
of a box depth-first, narrowing each coordinate's range with exact integer
interval arithmetic on integer equalities and inequalities. The bounds are
sound but not tight, so every emitted point is re-checked at the leaf
against the integer partial sums <a, x> the walk already maintains.
`enumerate_points` feeds it a polytope's half-space form; the half-space
data are jointly primitive integers, so for a lattice point the strict
facet inequality <a, x> < c is the same as <a, x> <= c - 1, and the
relative interior is the same search with every facet bound lowered by
one. `cones.parallelepiped_points` feeds it fundamental parallelepipeds.

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


def _floor_div(num: int, den: int) -> int:
    return num // den


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def lattice_points(equalities, inequalities, lo: IntPoint, hi: IntPoint) -> list[IntPoint]:
    """Integer points x of the box lo <= x <= hi, lexicographically sorted,
    with <a, x> == c for every (a, c) in equalities and <a, x> <= c for
    every (a, c) in inequalities. All data must be integers.
    """
    n = len(lo)
    # constraints as (coeffs, bound, is_equality); <a, x> <= c or == c
    constraints = [(a, c, True) for a, c in equalities] + [
        (a, c, False) for a, c in inequalities
    ]
    # suffix extremes: smallest/largest possible contribution of coords j >= i
    suf_min = []
    suf_max = []
    for a, _, _ in constraints:
        mins = [0] * (n + 1)
        maxs = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            mins[j] = mins[j + 1] + min(a[j] * lo[j], a[j] * hi[j])
            maxs[j] = maxs[j + 1] + max(a[j] * lo[j], a[j] * hi[j])
        suf_min.append(mins)
        suf_max.append(maxs)

    out: list[IntPoint] = []
    partial = [0] * len(constraints)
    point = [0] * n

    def walk(depth: int) -> None:
        if depth == n:
            if all(s == c if is_eq else s <= c
                   for s, (_, c, is_eq) in zip(partial, constraints)):
                out.append(tuple(point))
            return
        lo_d, hi_d = lo[depth], hi[depth]
        for k, (a, c, is_eq) in enumerate(constraints):
            coef = a[depth]
            room = c - partial[k]
            if coef > 0:
                hi_d = min(hi_d, _floor_div(room - suf_min[k][depth + 1], coef))
                if is_eq:
                    lo_d = max(lo_d, _ceil_div(room - suf_max[k][depth + 1], coef))
            elif coef < 0:
                lo_d = max(lo_d, _ceil_div(room - suf_min[k][depth + 1], coef))
                if is_eq:
                    hi_d = min(hi_d, _floor_div(room - suf_max[k][depth + 1], coef))
            else:
                # no leverage on this coordinate; cut the subtree only when infeasible
                tail_lo = partial[k] + suf_min[k][depth + 1]
                tail_hi = partial[k] + suf_max[k][depth + 1]
                if tail_lo > c or (is_eq and tail_hi < c):
                    return
            if lo_d > hi_d:
                return
        for value in range(lo_d, hi_d + 1):
            point[depth] = value
            for k, (a, _, _) in enumerate(constraints):
                partial[k] += a[depth] * value
            walk(depth + 1)
            for k, (a, _, _) in enumerate(constraints):
                partial[k] -= a[depth] * value
        return

    walk(0)  # values ascend at every depth, so `out` is already sorted
    return out


def enumerate_points(p: RationalPolytope, region: str = "closed") -> list[IntPoint]:
    """All lattice points of p (or of its relative interior), sorted.

    region: 'closed' or 'interior' (interior is relative to the affine hull).
    """
    if region not in ("closed", "interior"):
        raise InputError(f"unknown region {region!r}")
    lo, hi = p.bounding_box()
    if any(l > h for l, h in zip(lo, hi)):
        return []
    hrep = p.facets()
    slack = 1 if region == "interior" else 0
    return lattice_points(hrep.equalities,
                          [(a, c - slack) for a, c in hrep.inequalities], lo, hi)


def count_points(p: RationalPolytope, n: int, region: str = "closed") -> int:
    """Number of lattice points in the n-th dilate (n >= 0)."""
    if n < 0:
        raise InputError("dilate index must be nonnegative")
    if region not in ("closed", "interior"):
        raise InputError(f"unknown region {region!r}")
    if n == 0:
        return 1  # the 0-th dilate is the origin
    return len(enumerate_points(p.dilate(n), region=region))


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
        return self.quasi_interior.evaluate(n)


@lru_cache(maxsize=None)
def _ehrhart_cached(p: RationalPolytope) -> EhrhartResult:
    d = p.dim
    per = p.vertex_denominator()
    top = per * (d + 2) - 1  # numerator window plus `per` guard terms

    closed_counts: list[int] = [1]
    interior_counts: list[int] = [1]
    for n in range(1, top + 1):
        dilated = p.dilate(n)
        closed_counts.append(len(enumerate_points(dilated)))
        interior_counts.append(len(enumerate_points(dilated, region="interior")))

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
        leads = {c.coeffs[-1] for c in constituents if c.degree() == d}
        if any(c.degree() != d for c in constituents) or len(leads) != 1:
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
            direct = len(enumerate_points(p.dilate(n), region="interior"))
            inst["interior_direct"] = direct
            inst["pass"] = ok and res.interior_count(n) == direct
        instances.append(inst)
    return Report.from_instances("count(-n) == (-1)^dim interior_count(n)", instances,
                                 notes={"polytope": p.name or repr(p), "period": res.period})
