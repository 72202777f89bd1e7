"""Placing triangulations against the affine placing they replaced.

Oracle: `affine_placing_cells`, the earlier placing kept as a test helper.
It tracks a row-reduced basis of the current affine hull and tests each
boundary facet by the signs of its hyperplane at the apex and at the new
point. `placing_cells` places homogeneous vectors and reads both predicates
from `linalg.simplex_solve`. The two must list the same cells in the same
order: for points p placed as (p, 1), and for cone generators, which the
oracle places through the cross-section g / <w, g> at the dual vector w of
`dual_interior_vector`, with half-open flags from its own exact solve.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ehrkit import linalg
from ehrkit.cones import _REFERENCE_SEED, RationalCone, decompose, dual_interior_vector
from ehrkit.corpus import list_polytopes, load_polytope
from ehrkit.placing import boundary_facets, placing_cells


def facet_hyperplane(points, facet, directions):
    """Hyperplane <a, x> = c through the facet, with a in the hull's span."""
    f0 = points[facet[0]]
    rows = [[linalg.dot(linalg.vec_sub(points[v], f0), b) for b in directions]
            for v in facet[1:]]
    kernel = linalg.nullspace(rows, ncols=len(directions))
    assert len(kernel) == 1, facet
    a = tuple(sum((y * b[j] for y, b in zip(kernel[0], directions)), Fraction(0))
              for j in range(len(f0)))
    return a, linalg.dot(a, f0)


def affine_placing_cells(points):
    """Cells of the placing of affine points, in creation order."""
    base = points[0]
    directions = []
    cells = [(0,)]
    for i in range(1, len(points)):
        q = points[i]
        enlarged, _ = linalg.row_reduce(directions + [linalg.vec_sub(q, base)])
        if len(enlarged) > len(directions):
            cells = [cell + (i,) for cell in cells]
            directions = list(enlarged)
            continue
        added = []
        for facet, apex in boundary_facets(cells):
            a, c = facet_hyperplane(points, facet, directions)
            apex_side = linalg.dot(a, points[apex]) - c
            q_side = linalg.dot(a, q) - c
            if apex_side * q_side < 0:
                added.append(tuple(sorted(facet + (i,))))
        cells.extend(added)
    return cells


def cross_section_pieces(cone):
    """(generators, open flags) of each piece, from the cross-section placing.

    The flags are set against the same seeded reference point as
    `cones.decompose`, with coefficients from `linalg.solve`.
    """
    w = dual_interior_vector(cone)
    section = [tuple(Fraction(v) / linalg.dot(w, g) for v in g) for g in cone.generators]
    pieces = [tuple(cone.generators[i] for i in cell)
              for cell in affine_placing_cells(section)]
    rng = random.Random(_REFERENCE_SEED)
    for _ in range(64):
        coeffs = [1 + Fraction(rng.randint(1, 999983), 10**7) for _ in pieces[0]]
        reference = [sum(c * g[j] for c, g in zip(coeffs, pieces[0]))
                     for j in range(cone.ambient_dim)]
        lambdas = []
        for gens in pieces:
            columns = [[g[j] for g in gens] for j in range(cone.ambient_dim)]
            lambdas.append(linalg.solve(columns, reference))
        if all(all(lam) for lam in lambdas):
            return [(gens, tuple(v < 0 for v in lam))
                    for gens, lam in zip(pieces, lambdas)]
    raise AssertionError("no generic reference point")


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
    if linalg.rank([linalg.vec_sub(p, pts[0]) for p in pts]) < n:
        kinds.add("embedded")
    return kinds, pts


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
        cells = placing_cells([p + (1,) for p in pts])
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


def test_placing_matches_affine_placing_on_corpus():
    for name in list_polytopes():
        pts = list(load_polytope(name).vertices)
        for order in (pts, pts[::-1]):
            assert placing_cells([p + (1,) for p in order]) == \
                affine_placing_cells(order), name


def random_pointed_cone(rng):
    """Cone on 2..6 integer generators in R^2..R^4 that a random integer
    functional keeps positive; about half span a proper subspace."""
    n = rng.randint(2, 4)
    k = n if rng.random() < 0.5 else rng.randint(1, n - 1)
    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    while linalg.rank(basis) < k:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    u = [rng.randint(-2, 2) or 1 for _ in range(k)]
    count = rng.randint(k, k + 3)
    rays = []
    while len(rays) < count:
        c = [rng.randint(-2, 2) for _ in range(k)]
        if sum(a * b for a, b in zip(u, c)) > 0:
            rays.append([sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(n)])
    return RationalCone.from_rays(rays)


def test_decompose_matches_cross_section_placing_on_seeded_cones():
    rng = random.Random(41183)
    seen = {"cones": 0, "embedded": 0, "several_pieces": 0, "open_flags": 0}
    for trial in range(150):
        cone = random_pointed_cone(rng)
        pieces = [(p.generators, p.open_flags) for p in decompose(cone)]
        assert pieces == cross_section_pieces(cone), (trial, cone.generators)
        seen["cones"] += 1
        seen["embedded"] += cone.dim < cone.ambient_dim
        seen["several_pieces"] += len(pieces) > 1
        seen["open_flags"] += any(any(flags) for _, flags in pieces)
    assert seen["embedded"] >= 60 and seen["several_pieces"] >= 50, seen
    assert seen["open_flags"] >= 50, seen
