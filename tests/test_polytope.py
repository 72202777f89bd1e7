"""Polytope normalization, facet, membership, and reflexivity tests.

Facet oracles are frozen by hand: each expected half-space was checked by
evaluating the vertex list directly (all vertices satisfy it, some vertex
set of affine rank dim-1 is tight). The facets read off the placing
triangulation are also cross-checked against an exhaustive scan over point
subsets on the corpus and on seeded random clouds, and the vertices read
off the facet incidence against the rank rule of `helpers.rank_vertices`
(the tight facet normals of a vertex have rank dim). Reflexivity oracles
follow from the offset-1 criterion applied to hand-translated facet data.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ehrkit import linalg, structure
from ehrkit.corpus import list_polytopes, load_polytope
from ehrkit.errors import InputError, UnsupportedError
from ehrkit.polytope import (
    HRep,
    RationalPolytope,
    _joint_primitive,
    _projection,
    contains_polytope,
)
from ehrkit.structure import reflexive_check

from helpers import (
    fraction_dot,
    fraction_nullspace,
    fraction_rref,
    fraction_sub,
    normalize,
    onto_hull,
    rank_vertices,
)


def square(side=1):
    return normalize([[0, 0], [side, 0], [0, side], [side, side]])


def subset_scan(points):
    """Oracle: half-space form by trying every dim-subset of the points.

    Equalities come from the reduced row echelon basis of the annihilator
    of the lifted points (p, 1): each row (c, c_0), made primitive with its
    positive lead, is <c, x> = -c_0. A subset whose differences span a
    (dim-1)-flat of the direction space gives a candidate hyperplane, kept
    when every point lies on one side.
    """
    pts = list(dict.fromkeys(tuple(Fraction(v) for v in p) for p in points))
    base = pts[0]
    directions, _ = fraction_rref([fraction_sub(p, base) for p in pts[1:]])
    dim = len(directions)
    annihilator, _ = fraction_rref(fraction_nullspace([p + (1,) for p in pts], len(base) + 1))
    eqs = [_joint_primitive(row[:-1], -row[-1]) for row in annihilator]
    ineqs = set()
    for subset in itertools.combinations(pts, dim) if dim else ():
        rows = [[fraction_dot(fraction_sub(q, subset[0]), b) for b in directions]
                for q in subset[1:]]
        kernel = fraction_nullspace(rows, dim)
        if len(kernel) != 1:
            continue
        a = tuple(sum((y * b[j] for y, b in zip(kernel[0], directions)), Fraction(0))
                  for j in range(len(base)))
        c = fraction_dot(a, subset[0])
        sides = [fraction_dot(a, q) - c for q in pts]
        if all(v <= 0 for v in sides):
            ineqs.add(_joint_primitive(a, c))
        elif all(v >= 0 for v in sides):
            ineqs.add(_joint_primitive([-v for v in a], -c))
    return HRep(tuple(sorted(eqs)), tuple(sorted(ineqs)))


def random_cloud(rng):
    """Rational points in R^1..R^5, sometimes in a proper affine subspace,
    with convex combinations of them and repeats mixed in."""
    n = rng.randint(1, 5)
    k = n if rng.random() < 0.5 else rng.randint(0, n)
    den = rng.choice([1, 2, 3])
    offset = [Fraction(rng.randint(-den, den), den) for _ in range(n)]
    matrix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    pts = []
    for _ in range(rng.randint(k + 1, k + 3)):
        y = [Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(k)]
        pts.append([o + sum((m * v for m, v in zip(row, y)), Fraction(0))
                    for o, row in zip(offset, matrix)])
    for _ in range(rng.randint(0, 2)):
        weights = [rng.randint(1, 3) for _ in pts]
        total = sum(weights)
        pts.append([sum(w * p[j] for w, p in zip(weights, pts)) / total
                    for j in range(n)])
    pts += rng.sample(pts, min(len(pts), rng.randint(0, 2)))
    rng.shuffle(pts)
    return pts


def test_normalize_drops_non_extreme_points():
    p = normalize([[0, 0], [1, 0], [0, 1], [1, 1], ["1/2", "1/2"], ["1/2", 0]])
    assert p.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert p.dim == 2
    assert p.is_lattice


def test_unit_square_facets_frozen():
    hrep = square().facets()
    assert hrep.equalities == ()
    assert set(hrep.inequalities) == {
        ((-1, 0), 0),
        ((1, 0), 1),
        ((0, -1), 0),
        ((0, 1), 1),
    }


def test_embedded_segment_has_equality():
    p = normalize([[0, 0], [1, 0]])
    hrep = p.facets()
    assert p.dim == 1
    assert hrep.equalities == (((0, 1), 0),)
    assert set(hrep.inequalities) == {((-1, 0), 0), ((1, 0), 1)}


def test_point_polytope():
    p = normalize([["1/2", 3]])
    assert p.dim == 0
    assert p.facets().inequalities == ()
    assert len(p.facets().equalities) == 2
    assert p.contains(["1/2", 3])
    assert p.contains(["1/2", 3], region="interior")
    assert not p.contains([0, 3])


def test_facets_match_subset_scan_on_corpus():
    for name in list_polytopes():
        vertices = load_polytope(name).vertices
        assert normalize(vertices).facets() == subset_scan(vertices), name


def test_facets_match_subset_scan_on_random_clouds():
    rng = random.Random(20240817)
    dims = set()
    for trial in range(50):
        pts = random_cloud(rng)
        p = normalize(pts)
        dims.add((p.ambient_dim, p.dim))
        assert p.facets() == subset_scan(pts), (trial, pts)
    assert {n for n, _ in dims} == {1, 2, 3, 4, 5}
    assert any(d < n for n, d in dims)


def test_integer_hull_matches_subset_scan_on_rational_embedded_clouds():
    # the equalities, the projected facet normals and their offsets are all
    # built in integers; the oracle builds them in Fraction on its own
    rng = random.Random(20261020)
    kinds = Counter()
    for trial in range(120):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        den = rng.choice([2, 3, 4, 6])
        offset = [Fraction(rng.randint(-den, den), den) for _ in range(n)]
        matrix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        pts = [[o + sum((m * Fraction(v, den) for m, v in zip(row, y)), Fraction(0))
                for o, row in zip(offset, matrix)]
               for y in ([rng.randint(-2 * den, 2 * den) for _ in range(k)]
                         for _ in range(rng.randint(k + 1, k + 3)))]
        p = normalize(pts)
        assert p.facets() == subset_scan(pts), (trial, pts)
        kinds["embedded"] += p.dim < n
        kinds["rational"] += p.vertex_denominator() > 1
        kinds["several equalities"] += n - p.dim >= 2
        kinds["facets"] += len(p.facets().inequalities) >= 3
    assert kinds["embedded"] == 120 and kinds["rational"] >= 100, kinds
    assert kinds["several equalities"] >= 45 and kinds["facets"] >= 45, kinds


def test_vertices_match_rank_rule_on_random_clouds():
    # vertices are read off the facet incidence; the oracle asks for tight
    # normals of rank dim, and the hull of the vertices alone must give the
    # same half-space form
    rng = random.Random(3000)
    kinds = Counter()
    # the midpoint of an edge of the 4-dimensional cross-polytope lies on
    # four facets, as many as a vertex
    cross = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    for trial in range(301):
        pts = random_cloud(rng) if trial else cross + [(Fraction(1, 2), Fraction(1, 2), 0, 0)]
        p = normalize(pts)
        hrep = p.facets()
        assert list(p.vertices) == rank_vertices(pts, hrep, p.dim), (trial, pts)
        assert normalize(p.vertices).facets() == hrep, (trial, pts)
        distinct = {tuple(Fraction(v) for v in q) for q in pts}
        kinds["embedded"] += p.dim < p.ambient_dim
        kinds["rational"] += p.vertex_denominator() > 1
        kinds["duplicates"] += len(distinct) < len(pts)
        kinds["dropped"] += len(p.vertices) < len(distinct)
    assert kinds["embedded"] >= 120 and kinds["rational"] >= 160, kinds
    assert kinds["duplicates"] >= 180 and kinds["dropped"] >= 160, kinds


def test_birkhoff_4_facets_are_the_nonnegativity_constraints():
    """B4: the 24 permutation matrices in R^16 span a 9-dimensional
    polytope cut out by 7 independent line sums and the 16 facets x_ij >= 0."""
    points = [[int(perm[i] == j) for i in range(4) for j in range(4)]
              for perm in itertools.permutations(range(4))]
    p = normalize(points)
    hrep = p.facets()
    assert p.dim == 9 and len(p.vertices) == 24
    assert len(hrep.equalities) == 7
    assert all(fraction_dot(a, v) == c for a, c in hrep.equalities for v in p.vertices)
    # the normals lie in the direction space, so each facet shows as the
    # vertices it holds: those with x_ij = 0, for each of the 16 entries
    tight = {frozenset(v for v in p.vertices if fraction_dot(a, v) == c)
             for a, c in hrep.inequalities}
    assert len(hrep.inequalities) == 16
    assert tight == {frozenset(v for v in p.vertices if v[j] == 0) for j in range(16)}


def test_one_solve_projection_matches_onto_hull_oracle():
    # L I - N^T Y from one solve of Gram Y = L N, applied to each facet
    # normal, against a Fraction solve of Gram y = N a for that one vector
    rng = random.Random(26011)
    # B4's 7 independent line sums: the four row sums and three column sums
    cases = [[tuple(int(i == r) for i in range(4) for _ in range(4)) for r in range(4)]
             + [tuple(int(j == c) for _ in range(4) for j in range(4)) for c in range(3)]]
    while len(cases) < 120:
        n = rng.randint(2, 6)
        normals = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n - 1))]
        if linalg.rank(normals) == len(normals):
            cases.append(normals)
    kinds = Counter()
    for normals in cases:
        projection = _projection(normals)
        if not normals:
            assert projection is None
            kinds["no equalities"] += 1
            continue
        n = len(normals[0])
        assert all(row == col for row, col in zip(projection, zip(*projection))), normals
        for _ in range(5):
            a = tuple(rng.randint(-4, 4) for _ in range(n))
            image = tuple(linalg.int_dot(row, a) for row in projection)
            expected = onto_hull(a, normals)
            # a positive multiple of the projection, zero only with it
            if any(expected):
                assert linalg.primitive(image) == linalg.primitive(expected), (normals, a)
                assert fraction_dot(image, a) > 0
                kinds["projected"] += 1
            else:
                assert not any(image), (normals, a)
                kinds["zero"] += 1
        kinds["several equalities"] += len(normals) > 1
    assert kinds["projected"] >= 400 and kinds["no equalities"] >= 5, kinds
    assert kinds["several equalities"] >= 40 and kinds["zero"] >= 5, kinds


def test_reeve_simplex_facets_frozen():
    r2 = normalize([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]])
    assert set(r2.facets().inequalities) == {
        ((0, 0, -1), 0),
        ((-2, 0, 1), 0),
        ((0, -2, 1), 0),
        ((2, 2, -1), 2),
    }
    assert r2.dim == 3


def test_contains_regions():
    p = square()
    assert p.contains(["1/2", "1/2"], region="interior")
    assert p.contains([0, "1/2"]) and not p.contains([0, "1/2"], region="interior")
    assert not p.contains([2, 0])
    with pytest.raises(InputError):
        p.contains([0, 0], region="open")
    with pytest.raises(InputError):
        p.contains([0.5, 0.5])


def test_satisfies_matches_fraction_dot_on_random_clouds():
    # satisfies compares int_dot(a, x * den) with c * den; the oracle takes
    # the Fraction dot product, on the cloud's own points (tight ones
    # included), int points and nearby rational points
    rng = random.Random(2255)
    tight = 0
    for _ in range(60):
        pts = random_cloud(rng)
        hrep = normalize(pts).facets()
        candidates = [tuple(Fraction(v) for v in pt) for pt in pts]
        candidates += [tuple(rng.randint(-3, 3) for _ in pts[0]) for _ in range(5)]
        candidates += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in pts[0])
                       for _ in range(5)]
        for x in candidates:
            for strict in (False, True):
                expected = (all(fraction_dot(a, x) == c for a, c in hrep.equalities)
                            and all(fraction_dot(a, x) < c if strict else fraction_dot(a, x) <= c
                                    for a, c in hrep.inequalities))
                assert hrep.satisfies(x, strict=strict) == expected, (pts, x, strict)
            tight += any(fraction_dot(a, x) == c for a, c in hrep.inequalities)
    assert tight >= 100


def test_relative_interior_of_lower_dim_polytope():
    p = normalize([[0, 0], [2, 0]])
    assert p.contains([1, 0], region="interior")
    assert not p.contains([0, 0], region="interior")
    assert not p.contains([1, 1], region="interior")


def test_dilate_integer_and_rational():
    p = square()
    q = p.dilate(3)
    assert q.vertices == ((0, 0), (0, 3), (3, 0), (3, 3))
    assert set(q.facets().inequalities) == {
        ((-1, 0), 0),
        ((1, 0), 3),
        ((0, -1), 0),
        ((0, 1), 3),
    }
    half = p.dilate(Fraction(1, 2))
    assert ((2, 0), 1) in set(half.facets().inequalities)
    assert half.vertex_denominator() == 2
    with pytest.raises(InputError):
        p.dilate(0)


def test_translate_updates_facets():
    p = square().translate([-1, -1])
    assert set(p.facets().inequalities) == {
        ((-1, 0), 1),
        ((1, 0), 0),
        ((0, -1), 1),
        ((0, 1), 0),
    }


def test_contains_polytope_direction():
    small, big = square(1), square(2)
    assert contains_polytope(small, big)
    assert not contains_polytope(big, small)
    tri = normalize([[0, 0], [1, 0], [0, 1]])
    assert contains_polytope(tri, small)
    with pytest.raises(InputError):
        contains_polytope(small, normalize([[0, 0, 0], [1, 0, 0]]))


def test_reflexive_check_positive_cases():
    assert reflexive_check(square(2)) == (True, (1, 1))
    centered = normalize([[-1, -1], [1, -1], [-1, 1], [1, 1]])
    assert reflexive_check(centered) == (True, (0, 0))
    octa = normalize(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    )
    assert reflexive_check(octa) == (True, (0, 0, 0))
    big_tri = normalize([[0, 0], [3, 0], [0, 3]])
    assert reflexive_check(big_tri) == (True, (1, 1))


def test_reflexive_check_negative_cases():
    assert reflexive_check(square(1)) == (False, None)  # no interior point
    assert reflexive_check(normalize([[0, 0], [4, 0], [0, 4]]))[0] is False
    # interior point exists but a facet sits at lattice distance 2
    deep = normalize([[-2, -1], [2, -1], [0, 3]])
    ok, _ = reflexive_check(deep)
    assert ok is False


def test_reflexive_check_counts_before_it_lists(monkeypatch):
    # only a polytope with exactly one interior lattice point is listed:
    # the segment [-990037, 875789] holds 1,865,825 of them
    listed = []
    original = structure.enumerate_points

    def listing(p, region="closed"):
        listed.append(region)
        return original(p, region)

    monkeypatch.setattr(structure, "enumerate_points", listing)
    assert reflexive_check(normalize([[-990037], [875789]])) == (False, None)
    assert reflexive_check(square(1)) == (False, None)
    assert listed == []
    assert reflexive_check(square(2)) == (True, (1, 1))
    assert listed == ["interior"]


def test_reflexive_check_preconditions():
    with pytest.raises(UnsupportedError):
        reflexive_check(normalize([[0, 0], [1, 0]]))  # not full-dimensional
    with pytest.raises(UnsupportedError):
        reflexive_check(normalize([[0, 0], ["1/2", 0], [0, 1], ["1/2", 1]]))


def test_polytope_equality_and_hash():
    assert square() == normalize([[1, 1], [0, 0], [1, 0], [0, 1]])
    assert hash(square()) == hash(square(1))
    assert square() != square(2)


def test_mixed_dimension_points_rejected():
    with pytest.raises(InputError):
        normalize([[0, 0], [1]])
    with pytest.raises(InputError):
        normalize([])
