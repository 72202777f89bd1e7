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
from math import comb, gcd, lcm, prod

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
from ehrkit.errors import InputError, TheoremViolationError, UnsupportedError
from ehrkit.polytope import RationalPolytope, relative_volume
from ehrkit.ratpoly import interpolate
from ehrkit.semimagic import birkhoff_polytope
from ehrkit.triangulation import betke_mcmullen

from helpers import (fraction_det, fraction_rref, guarded_ehrhart, lattice_cloud,
                     lattice_points, minimal_period, normalize)


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
    coordinate's range is taken whole. The equalities are first brought to
    the rref of [A | c] over the columns in reverse, scaled to integers, so
    that each row's last nonzero coefficient is in a column of its own and
    the walk meets it with every other coordinate of the row fixed, on any
    basis of the equalities it is given.
    """
    n = len(lo)
    rref, _ = fraction_rref([list(a[::-1]) + [c] for a, c in equalities])
    scales = [lcm(*(v.denominator for v in row)) for row in rref]
    equalities = [(tuple(int(v * s) for v in row[n - 1::-1]), int(row[n] * s))
                  for row, s in zip(rref, scales)]
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


def free_coordinate_polytope(rng, free):
    """Hull of free + 1 or free + 2 points with denominators 1-3 that span
    `free` directions (fewer if the draw is degenerate): full-dimensional in
    R^free, or embedded in R^(free+1) or R^(free+2) through a rational offset,
    drawn as in `random_rational_polytope`."""
    n = free + rng.choice([0, 0, 1, 2])
    den = rng.choice([1, 2, 3])
    span = 2 if free <= 2 else 1
    if n == free:
        offset = [Fraction(0)] * n
        matrix = [[int(i == j) for j in range(free)] for i in range(n)]
    else:
        offset = [Fraction(rng.randint(-den, den), den) for _ in range(n)]
        matrix = [[rng.randint(-1, 1) for _ in range(free)] for _ in range(n)]
    pts = []
    for _ in range(rng.randint(free + 1, free + 2)):
        y = [Fraction(rng.randint(-span * den, span * den), den) for _ in range(free)]
        pts.append([o + sum(m * v for m, v in zip(row, y)) for o, row in zip(offset, matrix)])
    return normalize(pts)


def feasible_prefixes(inequalities, lo, hi):
    """Each prefix of the box of all but the last coordinate that satisfies
    every inequality on its own for some value of the last coordinate in its
    box, found by trying every prefix of the box: the values that the walk's
    depth before last loops over."""
    *head_lo, end_lo = lo
    *head_hi, end_hi = hi
    for prefix in itertools.product(*(range(l, h + 1) for l, h in zip(head_lo, head_hi))):
        if all(sum(u * y for u, y in zip(a, prefix)) + min(a[-1] * end_lo, a[-1] * end_hi) <= c
               for a, c in inequalities):
            yield prefix


def last_runs(inequalities, lo, hi):
    """Each of the `feasible_prefixes` with its closed and interior runs of
    the last coordinate as (low, high), as (prefix, closed, interior,
    reach)."""
    end_lo, end_hi = lo[-1], hi[-1]
    for prefix in feasible_prefixes(inequalities, lo, hi):
        sums = [(sum(u * y for u, y in zip(a, prefix)), a[-1], c) for a, c in inequalities]
        runs = []
        for slack in (0, 1):
            low, high = end_lo, end_hi
            for s, e, c in sums:
                room = c - slack - s
                if e > 0:
                    high = min(high, room // e)
                elif e < 0:
                    low = max(low, -(room // -e))
                elif room < 0:
                    high = low - 1
            runs.append((low, high))
        reach = all(s + min(e * end_lo, e * end_hi) <= c - 1 for s, e, c in sums)
        yield prefix, runs[0], runs[1], reach


def test_inline_last_level_matches_independent_oracles(monkeypatch):
    # counts of dilates 1..6 in both regions against the ambient walk and the
    # first dilates' listings against the Fraction box scan, on polytopes with
    # 1-4 free coordinates. The walks of `region_counts` are recorded and their
    # prefixes re-derived by trying every prefix of the box, to show that the
    # inline last level met one free coordinate, values whose last run is
    # empty, interior runs shorter than the closed run, and closed runs whose
    # prefix cannot reach the interior. Re-derived on the facet rows alone,
    # which come first, the prefixes also show the values that a projected row
    # cut, each with an empty closed run
    walks = []
    walked = enumeration._walk
    facet_count = [0]

    def recorded(inequalities, lo, hi, interior, runs=None):
        if interior:
            walks.append((inequalities, lo, hi, facet_count[0]))
        return walked(inequalities, lo, hi, interior, runs)

    monkeypatch.setattr(enumeration, "_walk", recorded)
    rng = random.Random(20261020)
    kinds = Counter()
    for free in (1, 2, 3, 4):
        for _ in range(18):
            p = free_coordinate_polytope(rng, free)
            hrep = p.facets()
            facet_count[0] = len(hrep.inequalities)
            for n in range(1, 7):
                q = p.dilate(n)
                lo, hi = q.bounding_box()
                equalities = [(a, n * c) for a, c in hrep.equalities]
                inequalities = [(a, n * c) for a, c in hrep.inequalities]
                expected = ambient_walk(equalities, inequalities, lo, hi, True)
                assert region_counts(p, n) == expected, (n, p.vertices)
                assert count_points(p, n) == expected[0], (n, p.vertices)
                assert count_points(p, n, "interior") == expected[1], (n, p.vertices)
                if n <= 2 and prod(h - l + 1 for l, h in zip(lo, hi)) <= 3000:
                    for region in ("closed", "interior"):
                        assert enumerate_points(q, region) == box_scan(q, region), (
                            n, region, p.vertices)
                    kinds["listed"] += 1
                kinds[f"dim {p.dim}"] += 1
                kinds["embedded"] += p.dim < p.ambient_dim
                kinds["rational"] += p.vertex_denominator() > 1
    for inequalities, lo, hi, facets in walks:
        kinds["one free coordinate"] += len(lo) == 1
        if not lo or prod(h - l + 1 for l, h in zip(lo[:-1], hi[:-1])) > 4000:
            continue
        tried = set()
        for prefix, (low, high), (inner_low, inner_high), reach in last_runs(
                inequalities, lo, hi):
            tried.add(prefix)
            kinds["empty last run"] += low > high
            kinds["interior run cut"] += reach and inner_low <= inner_high and (
                inner_high - inner_low < high - low)
            kinds["prefix off the interior"] += low <= high and not reach
        for prefix, (low, high), _, _ in last_runs(inequalities[:facets], lo, hi):
            if prefix not in tried:
                assert low > high, (inequalities, lo, hi, prefix)
                kinds["value cut by a projected row"] += 1
    minimum = {"dim 1": 60, "dim 2": 50, "dim 3": 50, "dim 4": 40, "embedded": 120,
               "rational": 150, "listed": 60, "one free coordinate": 60,
               "empty last run": 500, "interior run cut": 800,
               "prefix off the interior": 800, "value cut by a projected row": 3000}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


def vertex_sets(p):
    """For each facet of p, the indices of the vertices on it, by Fraction
    dot products in ambient coordinates."""
    return [{j for j, vert in enumerate(p.vertices) if sum(x * y for x, y in zip(a, vert)) == c}
            for a, c in p.facets().inequalities]


def projected_rows_oracle(p, rows, facets, kinds):
    """The rows that `_walk_data` appends to p's facet rows `rows[:facets]`,
    found from the Fraction incidence of p's vertices with its facets in
    ambient coordinates: for each upper facet (last walk coefficient u > 0)
    and lower facet (last coefficient -w < 0) that share at least n - 1
    vertices, w times the first plus u times the second over the gcd of all
    its entries, once each and never a facet row again. The pairs skipped
    are counted in `kinds` as parallel (their combination is zero) or as
    not adjacent."""
    on = vertex_sets(p)
    n = len(rows[0][0]) if facets else 0
    expected = []
    for (a, c, t), top in zip(rows[:facets], on):
        for (b, d, s), bottom in zip(rows[:facets], on):
            if n < 2 or a[-1] <= 0 or b[-1] >= 0:
                continue
            w, u = -b[-1], a[-1]
            vec = tuple(w * x + u * y for x, y in zip(a, b))
            if not any(vec):
                kinds["parallel pair"] += 1
            elif len(top & bottom) < n - 1:
                kinds["pair not adjacent"] += 1
            else:
                g = gcd(*vec, w * c + u * d, w * t + u * s)
                row = (tuple(x // g for x in vec), (w * c + u * d) // g, (w * t + u * s) // g)
                if row not in expected and row not in rows[:facets]:
                    expected.append(row)
    return expected


def test_projected_rows_keep_every_count_and_run(monkeypatch):
    # every dilate of the Ehrhart window, closed and interior as
    # `region_counts` walks them and interior as `count_points` does, walked
    # once on all of `_walk_data`'s rows and once on its facet rows alone:
    # the counts and the runs are identical. The appended rows are those of
    # the oracle, and the recorded walks, their prefixes re-derived by
    # trying every prefix of the box, show values that a projected row cut
    walks = []
    walked = enumeration._walk

    def recorded(inequalities, lo, hi, interior, runs=None):
        walks.append((inequalities, lo, hi))
        return walked(inequalities, lo, hi, interior, runs)

    monkeypatch.setattr(enumeration, "_walk", recorded)
    rng = random.Random(20261022)
    members = [random_rational_polytope(rng) for _ in range(40)]
    members += [random_embedded_polytope(rng) for _ in range(60)]
    members += [free_coordinate_polytope(rng, free) for free in (1, 2, 3, 4) for _ in range(6)]
    members += [RationalPolytope.from_points(lattice_cloud(seed, dim, size, side))
                for seed, (dim, size, side) in enumerate(
                    [(2, 12, 6), (3, 12, 3), (3, 25, 4), (3, 30, 4), (4, 10, 2), (4, 16, 2)])]
    members += [load_polytope(name) for name in list_polytopes()]  # boxes, crosses, B3
    for _ in range(20):  # rational boxes, some with a corner cut off: parallel facets
        dim, den = rng.randint(2, 3), rng.randint(1, 3)
        sides = [Fraction(rng.randint(1, 2 * den), den) for _ in range(dim)]
        corners = [[side * bit for side, bit in zip(sides, bits)]
                   for bits in itertools.product((0, 1), repeat=dim)]
        if rng.random() < 0.5:
            top = corners.pop()
            corners += [top[:j] + [top[j] / 2] + top[j + 1:] for j in range(dim)]
        members.append(normalize(corners))
    kinds = Counter()
    for p in members:
        data = enumeration._walk_data(p)
        rows = data[0]
        facets = len(p.facets().inequalities)
        assert rows[facets:] == projected_rows_oracle(p, rows, facets, kinds), p.vertices
        assert all(a[-1] == 0 and gcd(*a, c, t) == 1 for a, c, t in rows[facets:])
        kinds["projected rows"] += len(rows) - facets
        alone = (rows[:facets],) + data[1:]
        for n in range(1, p.vertex_denominator() * (p.dim + 2)):
            for slack, interior in ((0, True), (1, False)):
                runs, runs_alone = [], []
                del walks[:]
                counts = enumeration._count_dilate(data, n, slack, interior, runs)
                assert counts == enumeration._count_dilate(alone, n, slack, interior,
                                                          runs_alone), (n, slack, p.vertices)
                assert runs == runs_alone, (n, slack, p.vertices)
                if not walks:  # the dilate's hull misses the lattice
                    continue
                kinds["walk"] += 1
                inequalities, lo, hi = walks[0]
                kinds["one free coordinate"] += len(lo) == 1
                if len(lo) < 2 or prod(h - l + 1 for l, h in zip(lo[:-1], hi[:-1])) > 2000:
                    continue
                tried = set(feasible_prefixes(inequalities, lo, hi))
                kinds["walk with a value cut by a projected row"] += any(
                    prefix not in tried
                    for prefix in feasible_prefixes(inequalities[:facets], lo, hi))
    minimum = {"walk": 1500, "projected rows": 160, "one free coordinate": 200,
               "walk with a value cut by a projected row": 350, "parallel pair": 30,
               "pair not adjacent": 250}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


def test_projected_rows_grow_with_the_facets_not_with_their_pairs():
    # a seeded 60-point cloud in [0, 8]^4 has 130 facets and thousands of
    # pairs of an upper and a lower facet; the adjacency filter keeps no more
    # rows than the pairs that share n - 1 = 3 vertices, and fewer than the
    # facets, on this cloud and on a 30-point one
    for size, least in ((30, 60), (60, 120)):
        p = RationalPolytope.from_points(lattice_cloud(14, 4, size, 8))
        rows = enumeration._walk_data(p)[0]
        facets = len(p.facets().inequalities)
        ends = [(a[-1], on) for (a, _, _), on in zip(rows[:facets], vertex_sets(p))]
        pairs = [(top, bottom) for up, top in ends if up > 0 for down, bottom in ends if down < 0]
        adjacent = sum(len(top & bottom) >= 3 for top, bottom in pairs)
        assert facets >= least
        assert len(rows) - facets <= adjacent
        assert len(rows) - facets <= facets
        assert len(pairs) >= 10 * facets, (len(pairs), facets)


def test_a_row_decided_by_the_box_alone_decides_the_interior():
    # 0 <= 0 holds at every point and 0 <= -1 at none, so such a row keeps
    # the closed count and empties the interior, with one coordinate or more
    for lo, hi in (((0,), (3,)), ((0, 0), (3, 1)), ((0, 0, 0), (1, 1, 1))):
        box = prod(h - l + 1 for l, h in zip(lo, hi))
        bottom = ((1,) + (0,) * (len(lo) - 1), 0)  # keeps x_0 <= 0
        assert enumeration._walk([((0,) * len(lo), 0)], lo, hi, True) == (box, 0)
        assert enumeration._walk([((0,) * len(lo), -1)], lo, hi, True) == (0, 0)
        assert enumeration._walk([bottom], lo, hi, True) == (box // (hi[0] + 1), 0)


def test_a_dilate_that_is_not_a_plain_int_is_an_input_error():
    # the 3/2 dilate of this triangle holds 10 points, so a count there
    # must not read 0; a float or a bool is not a dilate index either
    triangle = normalize([[0, 0], [2, 0], [0, 2]])
    res = ehrhart(triangle)
    calls = [lambda n: count_points(triangle, n),
             lambda n: count_points(triangle, n, "interior"),
             lambda n: region_counts(triangle, n), res.count, res.interior_count,
             res.quasi.evaluate, res.quasi_interior.evaluate]
    for n in (Fraction(3, 2), Fraction(2), 1.5, 2.0, True, False, "2"):
        for call in calls:
            with pytest.raises(InputError, match="must be an int"):
                call(n)
    assert count_points(triangle, 2) == region_counts(triangle, 2)[0] == res.count(2) == 15


def skewed_simplex(rng):
    """A simplex with denominators 1-3, long and thin along a lattice
    direction that is no coordinate axis: a small simplex under an integer
    shear, of full dimension 2-4 unless the draw is degenerate."""
    dim = rng.choice([2, 2, 3, 3, 4])
    den = rng.choice([1, 2, 3]) if dim < 4 else 1
    shear = [[int(i == j) or (rng.randint(-3, 3) if j > i else 0) for j in range(dim)]
             for i in range(dim)]
    pts = []
    for _ in range(dim + 1):
        y = [Fraction(rng.randint(0, den + den // 2), den) for _ in range(dim)]
        pts.append([sum(s * v for s, v in zip(row, y)) for row in shear])
    return normalize(pts)


def test_free_box_is_no_larger_than_the_ambient_box():
    # x = V y with V from a Smith form, and the reduced basis of the free
    # coordinates, could skew the box of the free coordinates; on the corpus,
    # on B4, on the region-count test's polytopes and on skewed simplices, no
    # free coordinate is wider than the widest ambient one, and the free box
    # holds no more cells than the dim widest ambient coordinates
    rng = random.Random(20261018)
    members = [load_polytope(name) for name in list_polytopes()]
    members.append(birkhoff_polytope(4))
    members += [random_rational_polytope(rng) for _ in range(90)]
    members += [skewed_simplex(rng) for _ in range(30)]
    kinds = Counter()
    for p in members:
        if not p.dim:
            continue
        _, mins, maxs, den, *_ = enumeration._walk_data(p)
        free = sorted(top - bottom for bottom, top in zip(mins, maxs))
        ambient = sorted(den * (max(v[j] for v in p.vertices) - min(v[j] for v in p.vertices))
                         for j in range(p.ambient_dim))
        assert len(free) == p.dim
        assert free[-1] <= ambient[-1], (p.vertices, free, ambient)
        assert prod(w + 1 for w in free) <= prod(w + 1 for w in ambient[-p.dim:]), (
            p.vertices, free, ambient)
        kinds["embedded" if p.dim < p.ambient_dim else "full-dimensional"] += 1
    assert kinds["embedded"] >= 30 and kinds["full-dimensional"] >= 80, kinds


def walk_turn(p):
    """(T, before, after): the walk's free coordinates as T times those of
    `_lattice_basis`, read off V_inv V' for the walk basis V', whose fixed
    block must be the identity, and the cells of the den-th dilate's free
    box in both coordinates."""
    _, mins, maxs, den, _, basis, _ = enumeration._walk_data(p)
    v, v_inv, fixed, _ = enumeration._lattice_basis(p.facets().equalities, p.ambient_dim)
    k = len(fixed)
    block = [[sum(a * b for a, b in zip(row, col)) for col in zip(*basis)] for row in v_inv]
    assert [row[:k] for row in block] == [[int(i == j) for j in range(k)]
                                          for i in range(p.ambient_dim)], p.vertices
    assert all(not any(row[k:]) for row in block[:k]), p.vertices
    images = [[sum(a * x * den for a, x in zip(row, vert)) for row in v_inv[k:]]
              for vert in p.vertices]
    before = prod(max(col) - min(col) + 1 for col in zip(*images))
    return [row[k:] for row in block[k:]], before, prod(t - b + 1 for b, t in zip(mins, maxs))


def is_permutation(rows):
    return all(sorted(line) == [0] * (len(rows) - 1) + [1] for line in rows + list(zip(*rows)))


def test_reduced_walk_basis_keeps_every_count_and_listing():
    # every dilate of the Ehrhart window, closed and interior, against the
    # ambient walk, and the first dilates' listings against the Fraction box
    # scan, on skewed simplices, embedded polytopes with 2-4 free coordinates
    # and the corpus. The walk's free coordinates are a unimodular change T of
    # those of the Smith form; their box never grows, and shrinks strictly
    # whenever T is not a permutation. B4 and every 0/1 cloud keep their basis
    rng = random.Random(20261024)
    members = [skewed_simplex(rng) for _ in range(45)]
    while len(members) < 85:  # an Ehrhart window of dilates up to 17 in R^6 is slow
        p = free_coordinate_polytope(rng, rng.randint(2, 4))
        if p.dim < p.ambient_dim and p.vertex_denominator() ** (p.dim - 1) <= 4:
            members.append(p)
    members += [load_polytope(name) for name in list_polytopes()]
    kinds = Counter()
    for p in members:
        turn, before, after = walk_turn(p)
        changed = not is_permutation(turn)
        assert abs(fraction_det(turn)) == 1, p.vertices
        assert after < before if changed else after == before, (p.vertices, before, after)
        hrep = p.facets()
        per = p.vertex_denominator()
        for n in range(1, per * (p.dim + 2)):
            q = p.dilate(n)
            lo, hi = q.bounding_box()
            expected = ambient_walk([(a, n * c) for a, c in hrep.equalities],
                                    [(a, n * c) for a, c in hrep.inequalities], lo, hi, True)
            assert region_counts(p, n) == expected, (n, p.vertices)
            assert count_points(p, n) == expected[0], (n, p.vertices)
            assert count_points(p, n, "interior") == expected[1], (n, p.vertices)
            if n <= 2 and prod(h - l + 1 for l, h in zip(lo, hi)) <= 3000:
                for region in ("closed", "interior"):
                    assert enumerate_points(q, region) == box_scan(q, region), (
                        n, region, p.vertices)
                kinds["listed, changed basis"] += changed and expected[0] > 1
        kinds["changed basis"] += changed
        kinds["changed, rational"] += changed and per > 1
        kinds["changed, embedded"] += changed and p.dim < p.ambient_dim
        kinds["changed, corpus"] += changed and bool(p.name)
        kinds["kept basis"] += not changed and p.dim > 1
    minimum = {"changed basis": 60, "changed, rational": 30, "changed, embedded": 35,
               "changed, corpus": 2, "listed, changed basis": 70, "kept basis": 20}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds
    for p in [birkhoff_polytope(4)] + [
            RationalPolytope.from_points(lattice_cloud(seed, dim, size, 1))
            for seed, (dim, size) in enumerate([(3, 5), (3, 8), (4, 9), (4, 12), (5, 8)])]:
        turn, before, after = walk_turn(p)
        assert is_permutation(turn) and after == before == 2 ** p.dim, p.vertices


def test_enumerate_interior_points():
    square2 = normalize([[0, 0], [2, 0], [0, 2], [2, 2]])
    assert enumerate_points(square2, "interior") == [(1, 1)]
    assert enumerate_points(normalize([[0, 0], [1, 0], [0, 1], [1, 1]]), "interior") == []
    seg = normalize([[0, 0], [3, 0]])
    assert enumerate_points(seg, "interior") == [(1, 0), (2, 0)]
    with pytest.raises(InputError):
        enumerate_points(seg, "open")


def test_listings_past_the_limit_are_refused_once_counted(monkeypatch):
    # exact at the limit, and refused past it with the walk's count, closed
    # and interior alike; the segment [0, 10^30] is refused at once
    square4 = normalize([[0, 0], [4, 0], [0, 4], [4, 4]])
    monkeypatch.setattr(enumeration, "MAX_LISTED_POINTS", 25)
    assert len(enumerate_points(square4)) == 25
    monkeypatch.setattr(enumeration, "MAX_LISTED_POINTS", 9)
    assert len(enumerate_points(square4, "interior")) == 9
    with pytest.raises(UnsupportedError, match="^the listing holds 25 lattice points, "
                                               "over the limit of 9$"):
        enumerate_points(square4)
    monkeypatch.setattr(enumeration, "MAX_LISTED_POINTS", 8)
    with pytest.raises(UnsupportedError, match="^the listing holds 9 lattice points"):
        enumerate_points(square4, "interior")
    monkeypatch.undo()
    with pytest.raises(UnsupportedError, match="^the listing holds 1,000,000,000,000,"):
        enumerate_points(normalize([[0], [10**30]]))


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


def test_a_lower_degree_constituent_led_by_the_volume_is_a_violation(monkeypatch):
    # [1/2, 5/2] has volume 2; at odd n its counts are 2n closed and 2n - 2
    # interior. Counts 2 and -2 there instead give constituents of degree 0
    # whose one coefficient is the volume and which mirror each other under
    # reciprocity: only their degree shows that they are wrong.
    counted = enumeration._count_dilate

    def constant_at_odd_n(data, n, slack, interior):
        return (2, -2) if n % 2 else counted(data, n, slack, interior)

    p = normalize([["1/2"], ["5/2"]])
    assert relative_volume(p) == 2
    monkeypatch.setattr(enumeration, "_count_dilate", constant_at_odd_n)
    with pytest.raises(TheoremViolationError, match="common volume"):
        enumeration._ehrhart_cached.__wrapped__(p)


def test_every_single_count_corruption_is_a_theorem_violation(monkeypatch):
    # the window is the dilates 1..p(d+1)-1, each walked once, and every count
    # of it is certified: each nonzero closed constituent has degree d and
    # leads with the relative volume, the interior numerator's last
    # coefficient is read off that volume, and each interior constituent
    # mirrors a closed one under reciprocity, coefficient by coefficient
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
        normalize([[0, 0, 0], ["1/2", 0, 0], [0, 1, 0], [0, 0, "2/3"]]),
        normalize([[0, 0, 0, "1/2"], [1, 0, 0, "1/2"], [0, 1, 0, "1/2"], [0, 0, 1, "1/2"]]),
        normalize([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 2]]),
    ]
    kinds = Counter()
    for p in polytopes:
        per = p.vertex_denominator()
        window = list(range(1, per * (p.dim + 1)))
        walked = []

        def recorded(data, m, slack, interior):
            walked.append(m)
            return counted(data, m, slack, interior)

        monkeypatch.setattr(enumeration, "_count_dilate", recorded)
        enumeration._ehrhart_cached.__wrapped__(p)  # the true counts pass
        assert walked == window, (p, walked)
        for n in window:
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
        kinds["rational"] += per > 1
        kinds["embedded"] += p.dim < p.ambient_dim
    assert kinds["rational"] >= 8 and kinds["embedded"] >= 6, kinds
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


def test_volume_checked_window_matches_the_guarded_pipeline():
    kinds = Counter()

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(rational_polytopes())
    def check(p):
        hstar, quasi, quasi_interior, volume = guarded_ehrhart(p)
        res = enumeration._ehrhart_cached.__wrapped__(p)
        assert (res.hstar, res.quasi, res.quasi_interior) == (hstar, quasi, quasi_interior)
        assert relative_volume(p) == volume
        per = p.vertex_denominator()
        kinds["lattice"] += per == 1
        kinds["period > 1"] += per > 1
        kinds["embedded"] += p.dim < p.ambient_dim
        kinds["zero constituent"] += not all(quasi.constituents)

    check()
    minimum = {"lattice": 75, "period > 1": 60, "embedded": 60, "zero constituent": 18}
    assert all(kinds[kind] >= least for kind, least in minimum.items()), kinds


def test_moved_polytopes_match_the_hull_of_their_moved_vertices():
    # a dilate or a translate keeps a moved half-space form but no placing:
    # its volume places its own lifted vertices. A hull placed on more than
    # its vertices, with another common denominator, gives the same volume.
    polytopes = [
        reeve_simplex(3),
        normalize([[0, 0], ["1/2", 0], [0, "1/3"]]),
        normalize([["1/3", "2/3"], ["4/3", "2/3"]]),
        normalize([[0, 0, 0], [1, 1, 0], ["1/2", 0, "1/2"]]),
    ]
    for p in polytopes:
        d = p.dim
        centroid = [sum(column) / len(p.vertices) for column in zip(*p.vertices)]
        inside = [(6 * a + b) / 7 for a, b in zip(p.vertices[0], centroid)]
        assert relative_volume(normalize(list(p.vertices) + [inside])) == relative_volume(p)
        for t, v in (("2", ("1/2",) * p.ambient_dim), ("3/2", (1,) + (0,) * (p.ambient_dim - 1)),
                     ("1/3", ("-1/3",) * p.ambient_dim)):
            dilated, translated = p.dilate(t), p.translate(v)
            assert dilated._hrep is not None and dilated._lifted is None
            for moved, factor in ((dilated, Fraction(t) ** d), (translated, 1)):
                hull = normalize(moved.vertices)
                assert relative_volume(moved) == relative_volume(hull) == factor * relative_volume(p)
                expected = enumeration._ehrhart_cached.__wrapped__(hull)
                assert enumeration._ehrhart_cached.__wrapped__(moved) == expected
