"""Lattice-point enumeration and Ehrhart pipeline tests.

Count oracles: closed-form formulas for boxes, crosses, and simplices;
explicit hand-derived inequality systems for the Reeve simplex; the DFS
is cross-checked against a box scan with exact Fraction membership tests
on seeded random rational and embedded polytopes, and the walk in lattice
coordinates of the affine hull against `ambient_walk`, the walk with
equality rows in ambient coordinates that it replaced. Frozen h*-vectors were
derived by transforming oracle counts with an independent convolution (see
test_ratpoly) before being pinned here.
"""

from __future__ import annotations

import gc
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit import enumeration
from ehrkit.cones import generating_function, homogenize
from ehrkit.corpus import list_polytopes, load_polytope
from ehrkit.enumeration import (
    count_points,
    ehrhart,
    enumerate_points,
    reciprocity_check,
    region_counts,
)
from ehrkit.errors import InputError, TheoremViolationError
from ehrkit.ratpoly import interpolate
from ehrkit.semimagic import birkhoff_polytope
from ehrkit.triangulation import betke_mcmullen

from helpers import lattice_points, minimal_period, normalize


def box_scan(p, region="closed"):
    """Oracle: every lattice point of the bounding box, tested exactly."""
    lo, hi = p.bounding_box()
    return [
        pt
        for pt in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if p.contains(pt, region)
    ]


def random_rational_polytope(rng):
    """Hull of a few points with denominators 1-3, sometimes of lower dimension.

    Points are o + M y for a rational offset o, an integer n x k matrix M and
    rational y, so with k < n the polytope sits in a proper affine subspace
    that need not pass through a lattice point.
    """
    n = rng.choice([1, 2, 2, 3, 3, 4])
    k = n if n == 1 or rng.random() < 0.6 else rng.randint(1, n - 1)
    den = rng.choice([1, 2, 3])
    span = 1 if n == 4 else 2
    if k == n:
        offset = [Fraction(0)] * n
        matrix = [[int(i == j) for j in range(k)] for i in range(n)]
    else:
        offset = [Fraction(rng.randint(-den, den), den) for _ in range(n)]
        matrix = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(n)]
    pts = []
    for _ in range(rng.randint(k + 1, k + 3)):
        y = [Fraction(rng.randint(-span * den, span * den), den) for _ in range(k)]
        pts.append([o + sum(m * v for m, v in zip(row, y))
                    for o, row in zip(offset, matrix)])
    return normalize(pts)


def random_embedded_polytope(rng):
    """Hull of a few points o + M y with denominators 1-3 in R^1..R^5.

    M is an integer n x k matrix of rank at most k <= 3, k < n unless n <= 2, so
    the polytope lies in a proper affine subspace; a rational offset o off
    the lattice gives dilates whose affine hull holds no lattice point.
    """
    n = rng.randint(1, 5)
    k = n if n <= 2 and rng.random() < 0.4 else rng.randint(0, min(n - 1, 3))
    den = rng.choice([1, 2, 3])
    offset = [Fraction(rng.randint(-den, den), den) for _ in range(n)]
    matrix = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(n)]
    pts = []
    for _ in range(rng.randint(k + 1, k + 2)):
        y = [Fraction(rng.randint(-den, den), den) for _ in range(k)]
        pts.append([o + sum(m * v for m, v in zip(row, y)) for o, row in zip(offset, matrix)])
    return normalize(pts)


def ambient_walk(equalities, inequalities, lo, hi, interior):
    """Oracle: (closed, interior) counts of the integer points of the box
    lo <= x <= hi on the equalities and under the inequalities (interior:
    each inequality lowered by 1), walked in ambient coordinates.

    The walk the library ran before it walked lattice coordinates of the
    affine hull: each coordinate's range is cut by exact integer interval
    arithmetic on every row, an equality from both sides, and the last
    coordinate's range is taken whole.
    """
    n = len(lo)
    rows = [(a, c, c, True) for a, c in equalities]
    rows += [(a, c, c - 1, False) for a, c in inequalities]

    def tails(a):
        low = high = 0
        out = [None] * n
        for j in range(n - 1, -1, -1):
            out[j] = (low, high)
            low += min(a[j] * lo[j], a[j] * hi[j])
            high += max(a[j] * lo[j], a[j] * hi[j])
        return out, low, high

    table = [tails(a) for a, _, _, _ in rows]
    for (_, c, _, is_eq), (_, low, high) in zip(rows, table):
        if low > c or (is_eq and high < c):
            return 0, 0
    inside = interior and all(low <= inner and (not is_eq or high >= inner)
                              for (_, _, inner, is_eq), (_, low, high) in zip(rows, table))
    if n == 0:
        return 1, int(inside)

    def span(depth, partial, which):
        low, high = lo[depth], hi[depth]
        for (a, *bounds, is_eq), (tail, _, _), done in zip(rows, table, partial):
            coef = a[depth]
            if not coef:
                continue
            room = bounds[which] - done
            tail_min, tail_max = tail[depth]
            if coef > 0:
                high = min(high, (room - tail_min) // coef)
                if is_eq:
                    low = max(low, -((tail_max - room) // coef))
            else:
                low = max(low, -((tail_min - room) // coef))
                if is_eq:
                    high = min(high, (room - tail_max) // coef)
        return low, high

    def walk(depth, partial, inside):
        low, high = span(depth, partial, 0)
        if low > high:
            return 0, 0
        inner = span(depth, partial, 1) if inside else (1, 0)
        if depth == n - 1:
            return high - low + 1, max(0, inner[1] - inner[0] + 1)
        closed = interior_total = 0
        for value in range(low, high + 1):
            step = [done + a[depth] * value for (a, *_), done in zip(rows, partial)]
            c, i = walk(depth + 1, step, inside and inner[0] <= value <= inner[1])
            closed += c
            interior_total += i
        return closed, interior_total

    return walk(0, [0] * len(rows), inside)


def cross_polytope(d):
    pts = []
    for i in range(d):
        for s in (1, -1):
            pts.append([s if j == i else 0 for j in range(d)])
    return normalize(pts)


def reeve_simplex(q):
    return normalize([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, q]])


def reeve_count_oracle(q, n, interior=False):
    # independent membership: z >= 0, z <= qx, z <= qy, q(x+y) - z <= qn
    total = 0
    for x in range(0, n + 1):
        for y in range(0, n + 1):
            for z in range(0, q * n + 1):
                conds = [z >= 0, z <= q * x, z <= q * y, q * (x + y) - z <= q * n]
                strict = [z > 0, z < q * x, z < q * y, q * (x + y) - z < q * n]
                if all(strict if interior else conds):
                    total += 1
    return total


def test_unit_square_counts_match_formula():
    p = normalize([[0, 0], [1, 0], [0, 1], [1, 1]])
    for n in range(7):
        assert count_points(p, n) == (n + 1) ** 2
        if n >= 1:
            assert count_points(p, n, region="interior") == (n - 1) ** 2


def test_cross_polytope_counts():
    p = cross_polytope(2)
    for n in range(6):
        assert count_points(p, n) == 2 * n * n + 2 * n + 1


def test_standard_simplex_counts():
    p = normalize([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for n in range(7):
        assert count_points(p, n) == comb(n + 3, 3)
        assert count_points(p, n, region="interior") == (comb(n - 1, 3) if n else 1)


def test_reeve_simplex_counts_match_inequality_oracle():
    for q in (2, 3):
        p = reeve_simplex(q)
        for n in range(5):
            assert count_points(p, n) == reeve_count_oracle(q, n)
            if n >= 1:
                assert count_points(p, n, region="interior") == reeve_count_oracle(
                    q, n, interior=True
                )


def test_enumerate_returns_sorted_points():
    p = normalize([[0, 0], [2, 0], [0, 1]])
    pts = enumerate_points(p)
    assert pts == sorted(pts)
    assert pts == [(0, 0), (0, 1), (1, 0), (2, 0)]


def test_pruned_dfs_agrees_with_box_scan_on_random_polytopes():
    rng = random.Random(20240817)
    checked = 0
    for trial in range(60):
        p = random_rational_polytope(rng)
        for t in (1, 2, 3):
            q = p.dilate(t)
            lo, hi = q.bounding_box()
            if prod(max(h - l + 1, 0) for l, h in zip(lo, hi)) > 400:
                continue  # keeps the Fraction box scan fast
            for region in ("closed", "interior"):
                assert enumerate_points(q, region) == box_scan(q, region), (
                    trial, t, region, p.vertices)
                checked += 1
    assert checked >= 200


def test_region_counts_match_listing_and_box_scan():
    # the count-only pass against the listing path and the Fraction box scan,
    # on the 0-th to 3rd dilates; the 0-th dilate is the origin alone
    rng = random.Random(20261018)
    polytopes = [normalize([()]), normalize([["1/3", "2/3"], ["4/3", "2/3"]])]
    polytopes += [random_rational_polytope(rng) for _ in range(90)]
    kinds = Counter()
    for p in polytopes:
        for t in range(4):
            q = p.dilate(t) if t else normalize([[0] * p.ambient_dim])
            lo, hi = q.bounding_box()
            if prod(max(h - l + 1, 0) for l, h in zip(lo, hi)) > 400:
                continue  # keeps the Fraction box scan fast
            closed, interior = region_counts(p, t)
            assert closed == len(enumerate_points(q)) == len(box_scan(q)), (t, p.vertices)
            assert interior == len(enumerate_points(q, "interior")) == len(
                box_scan(q, "interior")), (t, p.vertices)
            assert count_points(p, t) == closed
            assert count_points(p, t, "interior") == interior
            kinds[f"ambient {p.ambient_dim}"] += 1
            kinds["rational"] += p.vertex_denominator() > 1
            kinds["embedded"] += p.dim < p.ambient_dim
            kinds["dilate 0"] += t == 0
            kinds["interior points"] += interior > 0
            kinds["boundary points"] += closed > interior > 0
    minimum = {"ambient 0": 4, "ambient 1": 30, "ambient 2": 100, "ambient 3": 60,
               "ambient 4": 15, "rational": 120, "embedded": 90, "dilate 0": 80,
               "interior points": 150, "boundary points": 100}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


def test_hull_coordinate_counts_match_the_ambient_walk():
    # every dilate of the Ehrhart window, walked in free lattice coordinates
    # of the affine hull, against the ambient walk on the dilate's half-space
    # form and bounding box; a dilate whose hull misses the lattice counts 0.
    # The first dilates are also listed, closed and interior, against the
    # oracle `lattice_points` on the same equalities and box
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(140):
        p = random_embedded_polytope(rng)
        hrep = p.facets()
        per = p.vertex_denominator()
        for n in range(1, per * (p.dim + 2)):
            q = p.dilate(n)
            lo, hi = q.bounding_box()
            equalities = [(a, n * c) for a, c in hrep.equalities]
            inequalities = [(a, n * c) for a, c in hrep.inequalities]
            expected = ambient_walk(equalities, inequalities, lo, hi, True)
            assert region_counts(p, n) == expected, (n, p.vertices)
            assert count_points(p, n, "interior") == expected[1], (n, p.vertices)
            if n <= 3:  # the listings against the oracle on the dilate's box
                points = enumerate_points(q)
                assert points == lattice_points(equalities, inequalities, lo, hi)
                assert len(points) == expected[0] and points == sorted(set(points))
                assert all(q.contains(x) for x in points)
                assert enumerate_points(q, "interior") == lattice_points(
                    equalities, [(a, c - 1) for a, c in inequalities], lo, hi)
            kinds[f"ambient {p.ambient_dim}"] += 1
            kinds["embedded"] += p.dim < p.ambient_dim
            kinds["embedded, rational"] += p.dim < p.ambient_dim and per > 1
            kinds["full-dimensional"] += p.dim == p.ambient_dim
            kinds["missing dilate"] += p.dim < p.ambient_dim and expected[0] == 0
            kinds["interior points"] += expected[1] > 0
            kinds[f"dim {p.dim}"] += 1
    minimum = {"ambient 1": 40, "ambient 2": 90, "ambient 3": 60, "ambient 4": 60,
               "ambient 5": 160, "dim 0": 50, "dim 1": 90, "dim 2": 90, "dim 3": 90,
               "embedded": 400, "embedded, rational": 330, "full-dimensional": 40,
               "missing dilate": 200, "interior points": 190}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


def test_free_box_is_no_larger_than_the_ambient_box():
    # x = V y with V from a Smith form could skew the box of the free
    # coordinates; on the corpus's embedded members, on B4 and on the
    # region-count test's embedded polytopes, no free coordinate is wider
    # than the widest ambient one, and the free box holds no more cells
    # than the dim widest ambient coordinates
    rng = random.Random(20261018)
    members = [load_polytope(name) for name in list_polytopes()]
    members.append(birkhoff_polytope(4))
    members += [random_rational_polytope(rng) for _ in range(90)]
    embedded = 0
    for p in members:
        if not 0 < p.dim < p.ambient_dim:
            continue
        _, mins, maxs, den, *_ = enumeration._walk_data(p)
        free = sorted(top - bottom for bottom, top in zip(mins, maxs))
        ambient = sorted(den * (max(v[j] for v in p.vertices) - min(v[j] for v in p.vertices))
                         for j in range(p.ambient_dim))
        assert len(free) == p.dim
        assert free[-1] <= ambient[-1], (p.vertices, free, ambient)
        assert prod(w + 1 for w in free) <= prod(w + 1 for w in ambient[-p.dim:]), (
            p.vertices, free, ambient)
        embedded += 1
    assert embedded >= 30


def test_enumerate_interior_points():
    square2 = normalize([[0, 0], [2, 0], [0, 2], [2, 2]])
    assert enumerate_points(square2, "interior") == [(1, 1)]
    assert enumerate_points(normalize([[0, 0], [1, 0], [0, 1], [1, 1]]), "interior") == []
    seg = normalize([[0, 0], [3, 0]])
    assert enumerate_points(seg, "interior") == [(1, 0), (2, 0)]
    with pytest.raises(InputError):
        enumerate_points(seg, "open")


def test_every_region_entry_point_rejects_an_unknown_region_alike():
    seg = normalize([[0, 0], [3, 0]])
    calls = [lambda: enumerate_points(seg, "open"), lambda: count_points(seg, 2, "open"),
             lambda: seg.contains([1, 0], "open"),
             lambda: generating_function(homogenize(seg), "open")]
    for call in calls:
        with pytest.raises(InputError, match="^unknown region 'open'$"):
            call()


def test_rational_half_segment_counts():
    p = normalize([["0"], ["1/2"]])
    for n in range(9):
        assert count_points(p, n) == n // 2 + 1
        if n >= 1:
            assert count_points(p, n, region="interior") == (n + 1) // 2 - 1


def test_ehrhart_unit_square():
    res = ehrhart(normalize([[0, 0], [1, 0], [0, 1], [1, 1]], name="unit_square"))
    assert res.period == 1
    assert res.quasi.constituents[0].coeffs == (1, 2, 1)
    assert res.hstar.coeffs == (1, 1)
    assert res.quasi_interior.constituents[0].coeffs == (1, -2, 1)
    assert res.count(10) == 121 and res.interior_count(10) == 81


def test_ehrhart_rational_half_segment():
    res = ehrhart(normalize([["0"], ["1/2"]], name="half_segment"))
    assert res.period == 2
    assert res.hstar.coeffs == (1, 1) and res.hstar.period == 2
    assert [res.count(n) for n in range(6)] == [1, 1, 2, 2, 3, 3]
    assert res.quasi.evaluate(5) == 3
    assert minimal_period(res.quasi) == 2


def test_ehrhart_lower_dimensional_polytope():
    res = ehrhart(normalize([[0, 0], [1, 0]], name="embedded_segment"))
    assert res.dim == 1
    assert res.period == 1
    assert res.hstar.coeffs == (1,)
    assert res.count(7) == 8


def test_ehrhart_embedded_segment_whose_dilates_miss_the_lattice():
    # y = 2n/3 holds no lattice point unless 3 | n: two constituents are zero
    res = ehrhart(normalize([["1/3", "2/3"], ["4/3", "2/3"]]))
    assert res.dim == 1 and res.period == 3
    assert [res.count(n) for n in range(10)] == [1, 0, 0, 4, 0, 0, 7, 0, 0, 10]
    assert [c.coeffs for c in res.quasi.constituents] == [(1, 1), (), ()]
    assert res.hstar.coeffs == (1, 0, 0, 2)
    assert reciprocity_check(normalize([["1/3", "2/3"], ["4/3", "2/3"]])).verdict == "pass"


def test_full_dimensional_polytope_keeps_the_strict_constituent_check(monkeypatch):
    # a zero constituent of a full-dimensional polytope is still a violation
    from ehrkit import enumeration

    counted = enumeration._count_dilate

    def only_multiples_of_3(data, n, slack, interior):
        return (0, 0) if n % 3 else counted(data, n, slack, interior)

    monkeypatch.setattr(enumeration, "_count_dilate", only_multiples_of_3)
    with pytest.raises(TheoremViolationError, match="common volume"):
        ehrhart(normalize([["0"], ["1/3"]], name="full_third_segment"))


def test_every_single_count_corruption_is_a_theorem_violation(monkeypatch):
    # every count of both windows is certified: the guard terms cover every
    # closed count and every interior count off the multiples of the period,
    # the reciprocity match of the constituents covers the rest
    from ehrkit import enumeration

    counted = enumeration._count_dilate
    polytopes = [
        normalize([()]),
        normalize([[0], [3]]),
        normalize([[0, 0], [1, 0], [0, 1], [1, 1]]),
        reeve_simplex(2),
        normalize([["0"], ["1/2"]]),
        normalize([[0, 0], ["1/2", 0], [0, "1/3"]]),
        normalize([["-1/2", "0"], ["1", "2/3"], ["0", "-1"]]),
        normalize([["1/2"]]),
        normalize([[0, 0], [1, 0]]),
        normalize([["1/3", "2/3"], ["4/3", "2/3"]]),
        normalize([[0, 0, 0], [1, 1, 0], ["1/2", 0, "1/2"]]),
        normalize([["1/2", 0, 0], [0, "1/2", 0], [0, 0, "1/2"]]),
    ]
    kinds = Counter()
    for p in polytopes:
        per = p.vertex_denominator()
        for n in range(1, per * (p.dim + 2)):
            for region, delta in itertools.product((0, 1), (1, -1)):
                def corrupted(data, m, slack, interior):
                    counts = list(counted(data, m, slack, interior))
                    if m == n:
                        counts[region] += delta
                    return tuple(counts)

                monkeypatch.setattr(enumeration, "_count_dilate", corrupted)
                with pytest.raises(TheoremViolationError):
                    enumeration._ehrhart_cached.__wrapped__(p)
                kinds["interior at a multiple" if region and n % per == 0 else "other"] += 1
        monkeypatch.setattr(enumeration, "_count_dilate", counted)
        enumeration._ehrhart_cached.__wrapped__(p)  # the true counts pass
        kinds["rational"] += per > 1
        kinds["embedded"] += p.dim < p.ambient_dim
    assert kinds["rational"] >= 7 and kinds["embedded"] >= 5, kinds
    assert kinds["interior at a multiple"] >= 50, kinds


def test_zero_dilate_interior_convention():
    # 0·P = {0} is its own relative interior, so one interior point is counted;
    # the interior quasipolynomial is the reciprocity one, (-1)^dim at n = 0
    segment = normalize([[0, 0], [2, 0]])
    square = normalize([[0, 0], [1, 0], [0, 1], [1, 1]])
    for p, sign in ((segment, -1), (square, 1)):
        assert count_points(p, 0, "interior") == 1
        assert region_counts(p, 0) == (1, 1)
        assert ehrhart(p).interior_count(0) == sign
        assert ehrhart(p).interior_count(1) == count_points(p, 1, "interior")


def test_ehrhart_result_exposes_no_name_of_an_equal_cached_polytope():
    first = normalize([[0, 0], [2, 0], [0, 3]], name="first_triangle")
    second = normalize([[0, 0], [2, 0], [0, 3]], name="second_triangle")
    assert first == second
    ehrhart(first)
    res = ehrhart(second)
    assert "first_triangle" not in repr(res)
    assert res.dim == 2


def test_ehrhart_cache_is_bounded_and_recomputes_evicted_polytopes():
    cached = enumeration._ehrhart_cached
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and len(list_polytopes()) < maxsize
    triangle = normalize([[0, 0], [2, 0], [0, 3]], name="evicted")
    first = ehrhart(triangle)
    for k in range(1, maxsize + 1):
        ehrhart(normalize([[0], [k]]))
    misses = cached.cache_info().misses
    again = ehrhart(triangle)
    assert cached.cache_info().misses == misses + 1 and again is not first
    assert again == first
    assert cached.cache_info().currsize == maxsize


def test_ehrhart_simplex_hstar_codegree():
    res = ehrhart(normalize([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert res.hstar.coeffs == (1,)
    assert res.hstar.codegree() == 4
    assert res.interior_count(4) == 1  # first dilate with an interior point


def test_ehrhart_reeve_hstar_frozen():
    assert ehrhart(reeve_simplex(2)).hstar.coeffs == (1, 0, 1)
    assert ehrhart(reeve_simplex(3)).hstar.coeffs == (1, 0, 2)


def test_ehrhart_centered_square():
    res = ehrhart(normalize([[-1, -1], [1, -1], [-1, 1], [1, 1]]))
    assert res.hstar.coeffs == (1, 6, 1)


def test_reciprocity_check_lattice_and_rational():
    for builder, name in [
        (lambda: normalize([[0, 0], [1, 0], [0, 1], [1, 1]]), "square"),
        (lambda: cross_polytope(3), "octahedron"),
        (lambda: normalize([["0"], ["1/2"]]), "half_segment"),
        (lambda: reeve_simplex(2), "reeve"),
    ]:
        report = reciprocity_check(builder(), max_n=8)
        assert report.verdict == "pass", (name, report.instances)
        assert len(report.instances) == 8
        assert all("interior_direct" in inst for inst in report.instances[:5])
        assert not any("interior_direct" in inst for inst in report.instances[5:])
    # a window that checks nothing is an input error, not a pass
    for max_n in (0, -3):
        with pytest.raises(InputError):
            reciprocity_check(builder(), max_n=max_n)
    assert len(reciprocity_check(builder(), max_n=1).instances) == 1


def test_reciprocity_half_segment_values():
    # count(-5) = -2 = -interior_count(5) in dimension 1
    res = ehrhart(normalize([["0"], ["1/2"]]))
    assert res.count(-5) == -2
    assert res.interior_count(5) == 2


def test_count_points_zero_dilate():
    p = normalize([[3, 4], [5, 4], [3, 6]])
    assert count_points(p, 0) == 1
    with pytest.raises(Exception):
        count_points(p, -1)
    # the region is checked before the 0-th dilate shortcut
    with pytest.raises(InputError):
        count_points(p, 0, "bogus")


def test_birkhoff_counts_small():
    perms = [
        [1, 0, 0, 0, 1, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, 0, 1, 0, 0],
    ]
    b3 = normalize(perms, name="birkhoff_3")
    assert b3.dim == 4
    assert [count_points(b3, n) for n in range(4)] == [1, 6, 21, 55]
    assert count_points(b3, 3, region="interior") == 1


def test_walks_leave_no_reference_cycles():
    # with the facets and caches already computed, a count, a listing and a
    # decomposition must free everything they built without the cycle collector
    members = [load_polytope(name) for name in ("hypercube_4d", "birkhoff_3", "reeve_3")]
    for p in members:
        count_points(p, 3)
        enumerate_points(p)
        betke_mcmullen(p)
    gc.collect()
    gc.disable()
    try:
        for p in members:
            count_points(p, 3)
            assert gc.collect() == 0, ("count_points", p.name)
            enumerate_points(p)
            assert gc.collect() == 0, ("enumerate_points", p.name)
            betke_mcmullen(p)
            assert gc.collect() == 0, ("betke_mcmullen", p.name)
    finally:
        gc.enable()


@st.composite
def rational_polytopes(draw):
    """Hull of a few points with denominators 1-3 in R^1..R^3, often embedded.

    Points are o + M y as in `random_rational_polytope`; a rational offset o
    off a lower-dimensional span gives dilates that miss the lattice.
    """
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 3))
    den = draw(st.integers(1, 3))
    small = st.integers(-1, 1)
    if k == n:
        offset = [Fraction(0)] * n
        matrix = [[int(i == j) for j in range(k)] for i in range(n)]
    else:
        offset = [Fraction(draw(st.integers(-den, den)), den) for _ in range(n)]
        matrix = [[draw(small) for _ in range(k)] for _ in range(n)]
    coordinate = st.integers(-2 * den, 2 * den).map(lambda v: Fraction(v, den))
    pts = [[o + sum(m * v for m, v in zip(row, y)) for o, row in zip(offset, matrix)]
           for y in draw(st.lists(st.lists(coordinate, min_size=k, max_size=k),
                                  min_size=k + 1, max_size=k + 3))]
    return normalize(pts)


def lagrange_oracle(counts, interior_counts, d, per):
    """Closed and interior constituents interpolated through d + 1 samples of
    each residue class, checked against every other sample of the window."""
    closed, interior = [], []
    for r in range(per):
        nodes = [r + per * k for k in range(d + 1)]
        closed.append(interpolate([(n, counts[n]) for n in nodes]))
        inner = nodes if r else [per * k for k in range(1, d + 2)]
        interior.append(interpolate([(n, interior_counts[n]) for n in inner]))
    for n in range(len(counts)):
        assert closed[n % per].evaluate(n) == counts[n]
        if n:
            assert interior[n % per].evaluate(n) == interior_counts[n]
    return closed, interior


def test_integer_ehrhart_matches_the_lagrange_oracle():
    kinds = Counter()

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(rational_polytopes())
    def check(p):
        assume(p.dim >= 1)
        res = ehrhart(p)
        d, per = p.dim, p.vertex_denominator()
        window = [region_counts(p, n) for n in range(per * (d + 2))]
        counts = [closed for closed, _ in window]
        interior_counts = [interior for _, interior in window]
        closed, interior = lagrange_oracle(counts, interior_counts, d, per)
        assert res.quasi.constituents == tuple(closed)
        assert res.quasi_interior.constituents == tuple(interior)
        oracle_h = [sum((-1) ** k * comb(d + 1, k) * counts[i - per * k]
                        for k in range(min(d + 1, i // per) + 1))
                    for i in range(per * (d + 1))]
        assert list(res.hstar.coeffs) == oracle_h[:len(res.hstar.coeffs)]
        assert all(type(c) is int for c in res.hstar.coeffs)
        assert not any(oracle_h[len(res.hstar.coeffs):])
        # count(-n) against the direct interior count, not the interior
        # quasipolynomial read off the same walk's counts
        for n in range(1, 5):
            assert res.count(-n) == (-1) ** d * count_points(p, n, "interior")
        kinds["embedded"] += d < p.ambient_dim
        kinds["rational"] += per > 1
        kinds["missing dilates"] += any(c == 0 for c in counts)
        kinds[f"dim {d}"] += 1

    check()
    minimum = {"embedded": 25, "rational": 30, "missing dilates": 10,
               "dim 1": 15, "dim 2": 15, "dim 3": 15}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds
