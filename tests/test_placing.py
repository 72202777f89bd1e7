"""Placing triangulations against the affine placing they replaced.

Oracle: `affine_placing_cells`, the earlier placing kept as a test helper.
It tracks a row-reduced basis of the current affine hull and tests each
boundary facet by the signs of its hyperplane at the apex and at the new
point. `placing_cells` places homogeneous integer vectors and reads both
predicates from `linalg.simplex_solve`. The two must list the same cells in
the same order: for points p placed as `integer_lifts`, (p L, L) for L the
lcm of their denominators, and for cone generators, which the
oracle places through the cross-section g / <w, g> at the dual vector w of
`dual_interior_vector` (in `helpers`), with half-open flags from its own
exact solve by the same lexicographic rule as `cones.decompose`. The
oracle also tallies the steps that `placing_cells`' incremental boundary
handles apart, so that the tests can require each of them to occur.
`boundary_rows` is checked against `boundary_facets`, the combinatorial
oracle in `helpers`, and each of its rows against `fraction_simplex_solve`.
Pins count the eliminations that placing integer vectors runs, none, and
the solve updates of B4's vertex placing.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path

import pytest

from ehrkit import cones, linalg, placing, polytope, triangulation
from ehrkit.cones import RationalCone, decompose, homogenize
from ehrkit.corpus import list_polytopes, load_polytope
from ehrkit.placing import boundary_rows, placing_cells
from ehrkit.polytope import RationalPolytope
from ehrkit.semimagic import birkhoff_polytope
from ehrkit.triangulation import betke_mcmullen

from helpers import (
    boundary_facets,
    dual_interior_vector,
    fraction_dot,
    fraction_nullspace,
    fraction_rank,
    fraction_rref,
    fraction_simplex_solve,
    fraction_solve,
    fraction_sub,
    integer_lifts,
    lattice_cloud,
)


def facet_hyperplane(points, facet, directions):
    """Hyperplane <a, x> = c through the facet, with a in the hull's span."""
    f0 = points[facet[0]]
    if len(directions) == len(f0):  # the rref of a full span is the identity
        kernel = fraction_nullspace([fraction_sub(points[v], f0) for v in facet[1:]], len(f0))
        assert len(kernel) == 1, facet
        return kernel[0], fraction_dot(kernel[0], f0)
    rows = [[fraction_dot(fraction_sub(points[v], f0), b) for b in directions]
            for v in facet[1:]]
    kernel = fraction_nullspace(rows, len(directions))
    assert len(kernel) == 1, facet
    a = tuple(sum((y * b[j] for y, b in zip(kernel[0], directions)), Fraction(0))
              for j in range(len(f0)))
    return a, fraction_dot(a, f0)


def affine_placing_cells(points, events=None):
    """Cells of the placing of affine points, in creation order.

    `events`, a Counter, tallies the cells created (the first, the coned
    ones of each dimension jump, the new ones of each other step) and the
    steps of the kinds an incremental boundary handles apart: a jump after
    a step that tested the boundary, a vector that sees no facet, and a
    ridge of two visible facets, which becomes interior.
    """
    events = Counter() if events is None else events
    base = points[0]
    directions = []
    cells = [(0,)]
    events["cells_created"] += 1
    tested = False
    planes = {}  # (facet, apex) -> (a, c, <a, apex> > c), integer a and c
    for i in range(1, len(points)):
        q = points[i]
        enlarged, _ = fraction_rref(directions + [fraction_sub(q, base)])
        if len(enlarged) > len(directions):
            cells = [cell + (i,) for cell in cells]
            directions = list(enlarged)
            events["cells_created"] += len(cells)
            events["jump_after_boundary"] += tested
            tested = False
            planes.clear()
            continue
        tested = True
        added = []
        for facet, apex in boundary_facets(cells):
            if (facet, apex) not in planes:
                a, c = facet_hyperplane(points, facet, directions)
                scale = lcm(*(v.denominator for v in a + (c,)))
                a, c = tuple(int(v * scale) for v in a), int(c * scale)
                planes[facet, apex] = a, c, fraction_dot(a, points[apex]) > c
            a, c, apex_above = planes[facet, apex]
            q_side = sum(map(mul, a, q)) - c
            if (q_side < 0) if apex_above else (q_side > 0):
                added.append(tuple(sorted(facet + (i,))))
        cells.extend(added)
        events["cells_created"] += len(added)
        events["sees_nothing"] += not added
        ridges = Counter(tuple(v for v in cell if v != drop)
                         for cell in added for drop in cell if drop != i)
        events["shared_ridge"] += any(n == 2 for n in ridges.values())
    return cells


def cross_section_pieces(cone, tally=None):
    """(generators, open flags) of each piece, from the cross-section placing.

    The flags follow the lexicographic rule of `cones.decompose`, with
    coefficients from `fraction_solve`: with q the sum of the first piece's
    generators, a piece's facet opposite its i-th generator is open when the
    first nonzero i-th coefficient of q, g_1, g_2, ... (the cone's
    generators) is negative. `tally`, a Counter, counts under "tie_break"
    the flags whose coefficient of q is 0.
    """
    tally = Counter() if tally is None else tally
    w = dual_interior_vector(cone)
    section = [tuple(Fraction(v) / fraction_dot(w, g) for v in g) for g in cone.generators]
    pieces = [tuple(cone.generators[i] for i in cell)
              for cell in affine_placing_cells(section)]
    q = [sum(col) for col in zip(*pieces[0])]
    result = []
    for gens in pieces:
        columns = [[g[j] for g in gens] for j in range(cone.ambient_dim)]
        lambdas = [fraction_solve(columns, x) for x in [q, *cone.generators]]
        flags = []
        for i in range(len(gens)):
            flags.append(next(lam[i] for lam in lambdas if lam[i]) < 0)
            tally["tie_break"] += lambdas[0][i] == 0
        result.append((gens, tuple(flags)))
    return result


def random_cloud(rng):
    """Distinct points in R^1..R^4: (kinds, points). Sometimes rational,
    sometimes in a proper affine subspace, sometimes with points that lie
    inside the hull of the others."""
    n = rng.randint(1, 4)
    k = n if rng.random() < 0.5 else rng.randint(1, n)
    den = rng.choice([1, 1, 2, 3])
    offset = [Fraction(rng.randint(-den, den), den) for _ in range(n)]
    matrix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    pts = []
    for _ in range(rng.randint(k + 1, k + 5)):
        y = [Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(k)]
        pts.append(tuple(o + sum((m * v for m, v in zip(row, y)), Fraction(0))
                         for o, row in zip(offset, matrix)))
    pts = list(dict.fromkeys(pts))
    kinds = {"rational" if any(v.denominator > 1 for p in pts for v in p) else "lattice"}
    if fraction_rank([fraction_sub(p, pts[0]) for p in pts]) < n:
        kinds.add("embedded")
    return kinds, pts


def placed_cells(vectors):
    """The cells of the placing of the vectors, without their solves."""
    return [cell for cell, _ in placing_cells(tuple(vectors))]


def test_placing_matches_affine_placing_on_seeded_clouds():
    rng = random.Random(7007)
    seen = {"lattice": 0, "rational": 0, "embedded": 0, "sorted": 0,
            "shuffled": 0, "skipped": 0, "several_cells": 0}
    for trial in range(120):
        kinds, pts = random_cloud(rng)
        if trial % 2:
            rng.shuffle(pts)
            kinds.add("shuffled")
        else:
            pts.sort()
            kinds.add("sorted")
        cells = placed_cells(integer_lifts(pts))
        assert cells == affine_placing_cells(pts), (trial, pts)
        if {i for cell in cells for i in cell} != set(range(len(pts))):
            kinds.add("skipped")
        if len(cells) > 1:
            kinds.add("several_cells")
        for kind in kinds:
            seen[kind] += 1
    assert min(seen[kind] for kind in ("lattice", "rational", "embedded",
                                       "sorted", "shuffled")) >= 40, seen
    assert seen["skipped"] >= 15 and seen["several_cells"] >= 60, seen


def test_placing_keeps_each_cell_solve_on_mixed_rational_clouds(monkeypatch):
    # rational and lattice clouds, placed as their integer lifts: every cell
    # made from a boundary facet takes one exchange pivot, embedded ones
    # included, and every cell comes with the solve of its generators
    made = []
    original = linalg.exchange_solve

    def recording(q, solve, apex):
        made.append((q, original(q, solve, apex)))
        return made[-1][1]

    monkeypatch.setattr(linalg, "exchange_solve", recording)
    rng = random.Random(3113)
    seen = Counter()
    for trial in range(150):
        kinds, pts = random_cloud(rng)
        if trial % 2:
            rng.shuffle(pts)
        else:
            pts.sort()
        vectors = integer_lifts(pts)
        made.clear()
        placing_cells.cache_clear()
        placed = placing_cells(tuple(vectors))
        assert [cell for cell, _ in placed] == affine_placing_cells(pts), (trial, pts)
        for q, (t_rows, _) in made:
            seen["pivot"] += 1
            seen["embedded"] += len(t_rows) < len(q)
        # every cell comes with its solve, for the hull, faces and pieces
        for cell, solve in placed:
            generators = tuple(vectors[v] for v in cell)
            assert solve == fraction_simplex_solve(generators), (trial, generators)
        seen.update(kinds)
    assert seen["pivot"] >= 150 and seen["embedded"] >= 60, seen
    assert seen["rational"] >= 60 and seen["lattice"] >= 60, seen


def test_incremental_boundary_matches_affine_placing_in_r5(monkeypatch):
    # clouds of 12-25 points of {0..side}^5; sorted clouds rise through the
    # lower dimensions first, so their jumps come after the boundary was
    # used, and shuffled ones get midpoints, which often see no facet
    solved = []
    original, original_exchange = linalg.simplex_solve, linalg.exchange_solve
    original_jump = linalg.jump_solve

    def counting(generators):
        solved.append(original(generators))
        return solved[-1]

    def exchanging(q, solve, apex):
        solved.append(original_exchange(q, solve, apex))
        return solved[-1]

    def jumping(q, solves):
        made = original_jump(q, solves)
        solved.extend(made)
        return made

    monkeypatch.setattr(linalg, "simplex_solve", counting)
    monkeypatch.setattr(linalg, "exchange_solve", exchanging)
    monkeypatch.setattr(linalg, "jump_solve", jumping)
    rng = random.Random(5125)
    seen = Counter()
    for trial in range(40):
        side, size = rng.choice((1, 2)), rng.randint(12, 25)
        pts = set()
        while len(pts) < size:
            pts.add(tuple(2 * rng.randint(0, side) for _ in range(5)))
        pts = sorted(pts)
        if trial % 2:
            pairs = [rng.sample(pts, 2) for _ in range(3)]
            pts = list(dict.fromkeys(pts + [tuple((u + v) // 2 for u, v in zip(*pair))
                                            for pair in pairs]))
            rng.shuffle(pts)
        events = Counter()
        solved.clear()
        placing.placing_cells.cache_clear()
        cells = placed_cells([p + (1,) for p in pts])
        assert cells == affine_placing_cells(pts, events), (trial, pts)
        # the solve of each cell it creates is made at most once, by pivot
        # or jump extension (a solve determines its cell's generators)
        assert len(set(solved)) == len(solved) <= events["cells_created"], trial
        seen.update(kind for kind, n in events.items() if n)
    # trials with at least one step of each kind
    assert seen["jump_after_boundary"] >= 20 and seen["sees_nothing"] >= 12, seen
    assert seen["shared_ridge"] >= 35, seen


def test_placing_matches_affine_placing_on_corpus():
    for name in list_polytopes():
        pts = list(load_polytope(name).vertices)
        for order in (pts, pts[::-1]):
            assert placed_cells(integer_lifts(order)) == \
                affine_placing_cells(order), name


def random_pointed_cone(rng):
    """Cone on 2..6 integer generators in R^2..R^4 that a random integer
    functional keeps positive; about half span a proper subspace."""
    n = rng.randint(2, 4)
    k = n if rng.random() < 0.5 else rng.randint(1, n - 1)
    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    while fraction_rank(basis) < k:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    u = [rng.randint(-2, 2) or 1 for _ in range(k)]
    count = rng.randint(k, k + 3)
    rays = []
    while len(rays) < count:
        c = [rng.randint(-2, 2) for _ in range(k)]
        if sum(a * b for a, b in zip(u, c)) > 0:
            rays.append([sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(n)])
    return RationalCone.from_rays(rays)


def random_cloud_cone(rng):
    """The cone over 4..7 seeded points of {0, 1, 2}^2 or ^3 lifted to
    height 1, whose many symmetric points often put the sum of the first
    piece's generators on a facet of another piece; about half are mapped
    into R^4..R^5 by an injective integer matrix, so they are embedded."""
    while True:
        d = rng.randint(2, 3)
        points = [p + (1,) for p in lattice_cloud(rng.randrange(10**6), d,
                                                   rng.randint(d + 2, 7), 2)]
        if fraction_rank(points) == d + 1:
            break
    if rng.random() < 0.5:
        return RationalCone.from_rays(points)
    n = d + 1 + rng.randint(1, 2)
    matrix = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(n)]
    while fraction_rank(matrix) < d + 1:
        matrix = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(n)]
    return RationalCone.from_rays([[linalg.int_dot(row, p) for row in matrix]
                                   for p in points])


def test_decompose_matches_cross_section_placing_on_seeded_cones():
    # the tie-break must decide some flags, embedded cones included: a rule
    # that read the ambient unit vectors, or flipped its sign, would still
    # partition a full-dimensional cone, but would not match these flags
    rng = random.Random(41183)
    seen = Counter()
    for trial in range(230):
        cone = random_pointed_cone(rng) if trial < 150 else random_cloud_cone(rng)
        pieces = [(p.generators, p.open_flags) for p in decompose(cone)]
        tally = Counter()
        assert pieces == cross_section_pieces(cone, tally), (trial, cone.generators)
        embedded = cone.dim < cone.ambient_dim
        seen["cones"] += 1
        seen["embedded"] += embedded
        seen["several_pieces"] += len(pieces) > 1
        seen["open_flags"] += any(any(flags) for _, flags in pieces)
        seen["tie_break"] += tally["tie_break"]
        seen["embedded_tie_break"] += embedded * tally["tie_break"]
    assert seen["embedded"] >= 90 and seen["several_pieces"] >= 100, seen
    assert seen["open_flags"] >= 100, seen
    assert seen["tie_break"] >= 30 and seen["embedded_tie_break"] >= 10, seen


def test_boundary_rows_match_boundary_facets_oracle():
    # the facets of the combinatorial oracle in its order, each with its
    # cell's solve and the T row at its apex, against Fraction elimination
    rng = random.Random(2113)
    seen = Counter()
    for trial in range(240):
        if trial % 3:
            kinds, pts = random_cloud(rng)
            if trial % 2:
                rng.shuffle(pts)
            else:
                pts.sort()
            vectors = integer_lifts(pts)
        else:
            cone = random_pointed_cone(rng)
            kinds = {"cone", "embedded"} if cone.dim < cone.ambient_dim else {"cone"}
            vectors = cone.generators
        placed = placing_cells(tuple(vectors))
        cells = [cell for cell, _ in placed]
        oracle = boundary_facets(cells)
        rows = boundary_rows(placed)
        assert list(rows) == [facet for facet, _ in oracle], (trial, vectors)
        for (facet, apex), (row, solve, pos) in zip(oracle, rows.values()):
            cell = tuple(sorted(facet + (apex,)))
            expected = fraction_simplex_solve(tuple(vectors[v] for v in cell))
            assert cell[pos] == apex and solve == expected, (trial, cell)
            assert row == expected[0][pos][0], (trial, cell)
        seen.update(kinds)
        seen["several_cells"] += len(cells) > 1
    assert min(seen[kind] for kind in ("lattice", "rational", "embedded", "cone")) >= 60, seen
    assert seen["several_cells"] >= 100, seen


def test_placing_integer_vectors_makes_no_elimination(monkeypatch):
    # each cell's solve is extended across a jump, from the empty
    # configuration's on, or exchanged from a neighbour's, and comes back
    # with its cell: the hull, both triangulations and the cone pieces of the
    # corpus, the benchmark's hull_decompose clouds of seed 7000 and B4 run
    # without one elimination. B4's vertex placing updates the span once per
    # jump, and all its cells' solves share one tuple of C rows. The updates
    # are counted inside placings only: the hull's projection solves its
    # Gram system by jumps of its own
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import hull_inputs

    eliminated, placed, updates, last, placing = [], Counter(), Counter(), [], []
    original_solve = linalg.simplex_solve
    original_exchange, original_jump = linalg.exchange_solve, linalg.jump_solve

    def eliminating(generators):
        eliminated.append(generators)
        return original_solve(generators)

    def exchanging(q, solve, apex):
        if placing:
            updates["exchange_solve"] += 1
        return original_exchange(q, solve, apex)

    def jumping(q, solves):
        if placing:
            updates["jump_solve"] += 1
        return original_jump(q, solves)

    def tracked(original):
        def placing_cells(vectors):
            original.cache_clear()  # no placing kept from an earlier call
            placing.append(vectors)
            try:
                result = original(vectors)
            finally:
                placing.pop()
            placed["calls"] += 1
            placed["cells"] += len(result)
            last[:] = [result]
            return result
        return placing_cells

    monkeypatch.setattr(linalg, "simplex_solve", eliminating)
    monkeypatch.setattr(linalg, "exchange_solve", exchanging)
    monkeypatch.setattr(linalg, "jump_solve", jumping)
    for module in (polytope, triangulation, cones):
        monkeypatch.setattr(module, "placing_cells", tracked(module.placing_cells))
    decompose.cache_clear()
    for name in list_polytopes():
        p = load_polytope(name)
        decompose(homogenize(p))
    for _, points in hull_inputs(7000)["clouds"]:
        p = RationalPolytope.from_points(points)
        betke_mcmullen(p, verify=False)
        betke_mcmullen(p, use_all_lattice_points=True, verify=False)
        decompose(homogenize(p))
    updates.clear()
    birkhoff_polytope(4)
    decompose.cache_clear()
    assert eliminated == [], placed
    assert updates == {"jump_solve": 10, "exchange_solve": 351}, updates
    assert len(last[0]) == 352 and len({id(c_rows) for _, (_, c_rows) in last[0]}) == 1
    # the corpus' hulls and cones, four placings of each of the five clouds
    # and B4's hull
    assert placed["calls"] >= 2 * len(list_polytopes()) + 4 * 5 + 1 and \
        placed["cells"] >= 750, placed


def test_lattice_cloud_refuses_more_points_than_its_grid():
    # drawing until it holds `size` distinct points would never end
    assert lattice_cloud(5, 2, 4, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError, match="holds 4 points, fewer than 5$"):
        lattice_cloud(5, 2, 5, 1)
