"""Placing triangulations, links, box polynomials, h*-assembly.

The link scan over every face of the triangulation, which `link_f_vector`
replaced with a scan of the face's star, lives here as the oracle
`global_link_f_vector`. The face-by-face assembly that `betke_mcmullen`
replaced with one pass over the face owners is `helpers.betke_mcmullen_by_faces`,
and cell and boundary volumes are checked against `linalg.lattice_normalized_volume`.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ehrkit import linalg, triangulation
from ehrkit.cones import HalfOpenSimplicialCone
from ehrkit.corpus import load_polytope
from ehrkit.enumeration import ehrhart
from ehrkit.errors import InputError, UnsupportedError
from ehrkit.polytope import RationalPolytope
from ehrkit.ratpoly import HStarData, Poly
from ehrkit.semimagic import adg_report
from ehrkit.structure import athanasiadis_check
from ehrkit.triangulation import (
    betke_mcmullen,
    box_polynomial,
    h_polynomial,
    link_f_vector,
    placing_triangulation,
)
from helpers import betke_mcmullen_by_faces, boundary_facets, fraction_rank, lattice_cloud
from test_cones import parallelepiped_box_scan


def poly(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def square():
    return RationalPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_placing_unit_square_two_cells():
    t = placing_triangulation(square())
    assert t.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert t.cells == ((0, 1, 2), (1, 2, 3))
    assert t.dim == 2
    assert t.f_vector() == (1, 4, 5, 2)
    assert t.is_unimodular()
    assert t.normalized_volume() == 2


def test_placing_needs_lattice_vertices():
    half = RationalPolytope.from_points([(0,), ("1/2",)])
    with pytest.raises(UnsupportedError):
        placing_triangulation(half)


def test_placing_all_lattice_points_subdivides():
    seg = RationalPolytope.from_points([(0,), (2,)])
    t_coarse = placing_triangulation(seg)
    t_fine = placing_triangulation(seg, use_all_lattice_points=True)
    assert t_coarse.cells == ((0, 1),)
    assert not t_coarse.is_unimodular()
    assert t_fine.points == ((0,), (1,), (2,))
    assert t_fine.cells == ((0, 1), (1, 2))
    assert t_fine.is_unimodular()
    assert t_coarse.normalized_volume() == t_fine.normalized_volume() == 2


def test_h_polynomial_of_square_complex():
    # two triangles glued along a diagonal
    assert h_polynomial((1, 4, 5, 2), 2) == poly(1, 1)
    # a single segment: f = (1, 2, 1), h = 1
    assert h_polynomial((1, 2, 1), 1) == poly(1)
    # the empty complex contributes 1
    assert h_polynomial((1,), -1) == poly(1)
    with pytest.raises(InputError):
        h_polynomial((1, 2), 2)
    with pytest.raises(InputError):
        h_polynomial((2, 1), 0)


def test_link_of_diagonal_edge():
    t = placing_triangulation(square())
    # indices 1 = (0,1) and 2 = (1,0) span the shared diagonal
    f, e = link_f_vector(t, (1, 2))
    assert (f, e) == ((1, 2), 0)
    assert h_polynomial(f, e) == poly(1, 1)


def test_link_of_empty_face_is_whole_complex():
    t = placing_triangulation(square())
    f, e = link_f_vector(t, ())
    assert (f, e) == ((1, 4, 5, 2), 2)


def test_link_of_corner_vertex():
    t = placing_triangulation(square())
    # vertex 0 = (0,0) sits in one cell only
    f, e = link_f_vector(t, (0,))
    assert (f, e) == ((1, 2, 1), 1)
    with pytest.raises(InputError):
        link_f_vector(t, (0, 3))


def test_box_polynomial_wide_segment():
    seg = RationalPolytope.from_points([(0,), (2,)])
    t = placing_triangulation(seg)
    assert box_polynomial(t.simplex((0, 1))) == poly(0, 1)
    assert box_polynomial(t.simplex((0,))) == Poly()
    assert box_polynomial(t.simplex(())) == poly(1)


def test_box_polynomial_reeve_cell():
    # the height-2 tetrahedron has a single interior box point at height 2
    r2 = RationalPolytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    t = placing_triangulation(r2)
    assert t.cells == ((0, 1, 2, 3),)
    assert box_polynomial(t.simplex((0, 1, 2, 3))) == poly(0, 0, 1)
    for face in t.faces():
        if 0 < len(face) < 4:
            assert box_polynomial(t.simplex(face)) == Poly()


def test_assembly_wide_segment():
    seg = RationalPolytope.from_points([(0,), (2,)])
    dec = betke_mcmullen(seg)
    assert dec.hstar.coeffs == (1, 1)
    faces = [face for face, _, _ in dec.contributions]
    assert faces == [(), (0, 1)]


def test_assembly_collapses_for_unimodular_triangulation():
    dec = betke_mcmullen(square())
    assert dec.hstar.coeffs == (1, 1)
    # every nonempty face has box zero, so only the empty face contributes
    assert [face for face, _, _ in dec.contributions] == [()]
    assert dec.triangulation.is_unimodular()


def test_assembly_reeve_simplices():
    for q, expected in [(2, (1, 0, 1)), (3, (1, 0, 2))]:
        rq = RationalPolytope.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)]
        )
        dec = betke_mcmullen(rq)
        assert dec.hstar.coeffs == expected


def test_assembly_matches_enumeration_on_small_corpus():
    members = [
        RationalPolytope.from_points([(0, 0), (2, 0), (0, 2), (2, 2)]),
        RationalPolytope.from_points([(0, 0), (2, 0), (0, 1)]),
        RationalPolytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                      (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
        RationalPolytope.from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                      (0, 0, 1), (0, 0, -1)]),
        RationalPolytope.from_points([(0, 1), (3, 1)]),  # embedded segment
    ]
    for p in members:
        for flavor in (False, True):
            dec = betke_mcmullen(p, use_all_lattice_points=flavor)
            assert dec.hstar.coeffs == ehrhart(p).hstar.coeffs


def test_cube_staircase():
    cube = RationalPolytope.from_points(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    t = placing_triangulation(cube)
    assert len(t.cells) == 6
    assert t.is_unimodular()
    dec = betke_mcmullen(cube)
    assert dec.hstar.coeffs == (1, 4, 1)


def test_octahedron_hstar_both_flavors():
    octa = RationalPolytope.from_points(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert betke_mcmullen(octa).hstar.coeffs == (1, 3, 3, 1)
    fine = betke_mcmullen(octa, use_all_lattice_points=True)
    assert fine.hstar.coeffs == (1, 3, 3, 1)
    # the center becomes a vertex of the finer triangulation
    assert (0, 0, 0) in fine.triangulation.points


def test_point_polytope():
    pt = RationalPolytope.from_points([(5, 7)])
    dec = betke_mcmullen(pt)
    assert dec.hstar.coeffs == (1,)
    assert dec.triangulation.cells == ((0,),)


def test_simplex_rejects_non_faces():
    t = placing_triangulation(square())
    # (0, 3) is the other diagonal; 4 and -1 index no point
    for bad in ((0, 3), (0, 1, 2, 3), (4,), (1, 4), (-1,)):
        with pytest.raises(InputError, match="is not a face of the triangulation"):
            t.simplex(bad)
        with pytest.raises(InputError, match="is not a face of the triangulation"):
            link_f_vector(t, bad)
    assert t.simplex((2, 1)) == t.simplex((1, 2))
    # a face is the closed cone over its lifted vertices
    piece = t.simplex((1, 2))
    assert piece.generators == (t.points[1] + (1,), t.points[2] + (1,))
    assert piece.open_flags == (False, False)


def global_link_f_vector(t, face):
    """Oracle: the faces disjoint from `face` whose union with it is a face,
    found by scanning every face of the triangulation."""
    face = tuple(sorted(face))
    all_faces = set(t.faces())
    e = t.dim - len(face)
    counts = [0] * (e + 2)
    for other in all_faces:
        if set(face) & set(other):
            continue
        if tuple(sorted(face + other)) in all_faces:
            counts[len(other)] += 1
    return tuple(counts), e


def heights(points):
    counts = {}
    for point in points:
        counts[point[-1]] = counts.get(point[-1], 0) + 1
    return Poly([counts.get(i, 0) for i in range(max(counts, default=-1) + 1)])


def random_full(rng):
    d = rng.choice((2, 3))
    side = 3 if d == 2 else 2
    while True:
        pts = {tuple(rng.randint(0, side) for _ in range(d))
               for _ in range(rng.randint(d + 1, d + 4))}
        p = RationalPolytope.from_points(pts)
        if p.dim == d:
            return p


def random_embedded(rng):
    """A random lattice polygon or segment, mapped into Z^3 by an integer map."""
    d = rng.choice((1, 2))
    while True:
        matrix = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(3)]
        if fraction_rank(matrix) != d:
            continue
        shift = [rng.randint(-1, 1) for _ in range(3)]
        pts = {tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(d + 3)}
        image = [tuple(s + sum(m * v for m, v in zip(row, pt))
                       for row, s in zip(matrix, shift)) for pt in pts]
        p = RationalPolytope.from_points(image)
        if p.dim == d:
            return p


def random_reeve(rng):
    """A Reeve tetrahedron of height q, sometimes with one more lattice point."""
    q = rng.randint(2, 4)
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)]
    if rng.random() < 0.5:
        pts.append((rng.randint(0, 1), rng.randint(0, 1), rng.randint(-1, q + 1)))
    return RationalPolytope.from_points(pts)


def solves_its_generators(piece):
    """The rows a piece read off a cell solve its generators: <T_i, g_j> =
    den_i delta_ij with den_i > 0, and n - k independent C rows vanish on
    every g_j."""
    gens = piece.generators
    t_rows, c_rows = piece.solve
    return ([[linalg.int_dot(row, g) for g in gens] for row, _ in t_rows]
            == [[den * (i == j) for j in range(len(gens))] for i, (_, den) in enumerate(t_rows)]
            and all(den > 0 for _, den in t_rows)
            and not any(linalg.int_dot(row, g) for row in c_rows for g in gens)
            and fraction_rank(c_rows) == len(c_rows) == len(gens[0]) - len(gens))


def test_face_solves_read_off_cells_on_random_polytopes():
    rng = random.Random(1407)
    read_off = listed = nonzero = 0
    for make in (random_full, random_embedded, random_reeve) * 30:
        p = make(rng)
        for flavor in (False, True):
            t = placing_triangulation(p, use_all_lattice_points=flavor)
            for face in t.faces():
                assert link_f_vector(t, face) == global_link_f_vector(t, face)
                if not face:
                    continue
                simplex = t.simplex(face)
                gens = simplex.generators
                t_rows, _ = simplex.solve
                assert solves_its_generators(simplex), (p, face)
                box = box_polynomial(simplex)
                piece = HalfOpenSimplicialCone(gens, (False,) * len(gens))
                assert box == heights(parallelepiped_box_scan(piece, "open")), (p, face)
                if any(den == 1 for _, den in t_rows):
                    read_off += 1
                else:
                    # no cell containing the face has den_i == 1 at any of
                    # its vertices
                    listed += 1
                    for cell in t.cells:
                        if set(face) <= set(cell):
                            cell_rows = linalg.simplex_solve(t._lifted(cell))[0]
                            assert all(den > 1 for v, (_, den) in zip(cell, cell_rows)
                                       if v in face), (p, face, cell)
                nonzero += bool(box)
    assert read_off >= 1950 and listed >= 870 and nonzero >= 130, (read_off, listed, nonzero)


def test_one_pass_assembly_matches_face_by_face_oracle(monkeypatch):
    # betke_mcmullen lists each nonempty face's box in one pass over the
    # face owners and sorts and links only the faces with a nonzero box;
    # the oracle walks every face in order through Triangulation.simplex
    pieces = []
    original = triangulation.parallelepiped_points

    def recording(piece, mode="half_open"):
        pieces.append(piece)
        return original(piece, mode)

    monkeypatch.setattr(triangulation, "parallelepiped_points", recording)
    rng = random.Random(2903)
    boxes = embedded = 0
    for make in (random_full, random_embedded, random_reeve) * 20:
        p = make(rng)
        embedded += p.dim < p.ambient_dim
        for flavor in (False, True):
            pieces.clear()
            dec = betke_mcmullen(p, use_all_lattice_points=flavor, verify=False)
            assert all(solves_its_generators(piece) for piece in pieces), (p, flavor)
            coeffs, contributions = betke_mcmullen_by_faces(dec.triangulation)
            assert dec.hstar == HStarData(coeffs, dim=p.dim), (p, flavor)
            assert dec.contributions == contributions, (p, flavor)
            boxes += len(contributions) - 1
    assert boxes >= 80 and embedded >= 15, (boxes, embedded)


def smith_volume(t, simplex):
    """Oracle: the normalized volume of a simplex of t, from a Smith form."""
    base = t.points[simplex[0]]
    return linalg.lattice_normalized_volume(
        [[v - b for v, b in zip(t.points[i], base)] for i in simplex[1:]])


def test_volumes_read_off_solves_match_smith_forms():
    # a cell whose den_i are all 1 has volume 1; any other goes to its
    # Smith form. The segment's cell has den 2 in both T rows and volume
    # 1; the triangle's has dens (2, 1, 2) and volume 2. A pyramid over a
    # Reeve tetrahedron has that tetrahedron, of volume q, as a boundary
    # facet; a pyramid over that pyramid has it as one, with den 1 at the
    # first apex.
    rng = random.Random(2904)
    polytopes = [RationalPolytope.from_points(pts) for pts in
                 ([(0, 0), (3, 2)], [(0, 0), (1, 0), (0, 2)])]
    for q in (2, 3):
        reeve = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)]
        polytopes.append(RationalPolytope.from_points(
            [pt + (0,) for pt in reeve] + [(0, 0, 0, 1)]))
        polytopes.append(RationalPolytope.from_points(
            [pt + (0, 0) for pt in reeve] + [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]))
    polytopes += [make(rng) for make in (random_full, random_embedded, random_reeve) * 8]
    seen = {"unit volume, some den > 1": 0, "volume > 1, some den 1": 0,
            "boundary unimodular": 0, "boundary not unimodular": 0}
    for p in polytopes:
        for flavor in (False, True):
            t = placing_triangulation(p, use_all_lattice_points=flavor)
            volumes = [smith_volume(t, cell) for cell in t.cells]
            assert t.normalized_volume() == sum(volumes), (p, flavor)
            assert t.is_unimodular() == all(v == 1 for v in volumes), (p, flavor)
            for (_, (t_rows, _)), volume in zip(t._placed, volumes):
                dens = [den for _, den in t_rows]
                seen["unit volume, some den > 1"] += volume == 1 and max(dens) > 1
                seen["volume > 1, some den 1"] += volume > 1 and min(dens) == 1
        # athanasiadis_check reads the boundary of the all-points placing, t
        flag = all(smith_volume(t, facet) == 1 for facet, _ in boundary_facets(t.cells))
        assert athanasiadis_check(p).notes["boundary-unimodular"] == flag, p
        seen["boundary unimodular" if flag else "boundary not unimodular"] += 1
    assert min(seen.values()) >= 2, seen


def test_betke_mcmullen_solves_only_cells(monkeypatch):
    # the placing makes the solve of each cell it creates once, by pivot or
    # jump extension, and hands it back with the cell: afterwards no cell and
    # no face is solved, and nothing is eliminated
    solved, placed, eliminated = [], [], []
    original_solve, original_exchange = linalg.simplex_solve, linalg.exchange_solve
    original_jump, original_placing = linalg.jump_solve, triangulation.placing_cells

    def counting(generators):
        eliminated.append(generators)
        return original_solve(generators)

    def exchanging(q, solve, apex):
        solved.append(original_exchange(q, solve, apex))
        return solved[-1]

    def jumping(q, solves):
        made = original_jump(q, solves)
        solved.extend(made)
        return made

    def placing(vectors):
        original_placing.cache_clear()  # no placing kept from an earlier call
        result = original_placing(vectors)
        placed.extend(solved)
        return result

    monkeypatch.setattr(linalg, "simplex_solve", counting)
    monkeypatch.setattr(linalg, "exchange_solve", exchanging)
    monkeypatch.setattr(linalg, "jump_solve", jumping)
    monkeypatch.setattr(triangulation, "placing_cells", placing)
    polytopes = [RationalPolytope.from_points(lattice_cloud(seed, dim, size, side))
                 for seed in range(3) for dim, size, side in
                 ((3, 20, 2), (3, 16, 2), (4, 11, 1), (4, 12, 1), (5, 7, 1))]
    polytopes += [load_polytope("reeve_2"), load_polytope("reeve_3")]
    for p in polytopes:
        for flavor in (False, True):
            solved.clear()
            placed.clear()
            eliminated.clear()
            t = betke_mcmullen(p, use_all_lattice_points=flavor, verify=False).triangulation
            # a solve determines its cell's generators, so no cell is solved twice
            assert len(set(placed)) == len(placed), p
            assert solved == placed and eliminated == [], p
            assert {solve for _, solve in t._placed} <= set(placed), p


def test_one_box_call_per_nonempty_face(monkeypatch):
    # the benchmark's self-test pins these counts through its tracer
    calls = []
    original = triangulation.parallelepiped_points

    def counting(piece, mode="half_open"):
        calls.append(piece.generators)
        return original(piece, mode)

    monkeypatch.setattr(triangulation, "parallelepiped_points", counting)
    for name, expected in (("hypercube_4d", 299), ("birkhoff_3", 55)):
        calls.clear()
        dec = betke_mcmullen(load_polytope(name), verify=False)
        t = dec.triangulation
        assert len(calls) == expected, name
        # every face reads its solve off a cell
        assert all(t.simplex(face).solve is not None for face in t.faces()), name
        assert sorted(calls) == sorted(t.simplex(face).generators for face in t.faces() if face)


def test_birkhoff_4_by_faces_within_budget(monkeypatch):
    # B4 = conv of the 24 permutation matrices, built here from the points.
    # Its placing triangulation has 352 unimodular cells and 55,440 faces.
    # Assembling h* in one pass over the face owners takes about 0.4 s on a
    # 2-vCPU VM (0.6 s face by face); one elimination per face took about
    # 33 s. Every nonempty face makes one box call, and every box is read
    # off a den_i of 1, as is every cell's volume: no Smith form is made.
    # (Its Ehrhart counts are checked in test_semimagic.)
    boxes, smith = [], []
    original_box, original_smith = triangulation.parallelepiped_points, linalg.smith_form

    def counting_boxes(piece, mode="half_open"):
        boxes.append(mode)
        return original_box(piece, mode)

    def counting_smith(rows):
        smith.append(rows)
        return original_smith(rows)

    perms = itertools.permutations(range(4))
    b4 = RationalPolytope.from_points(
        [tuple(int(perm[i] == j) for i in range(4) for j in range(4)) for perm in perms])
    monkeypatch.setattr(triangulation, "parallelepiped_points", counting_boxes)
    monkeypatch.setattr(linalg, "smith_form", counting_smith)
    start = time.monotonic()
    dec = betke_mcmullen(b4, verify=False)
    elapsed = time.monotonic() - start
    assert dec.triangulation.normalized_volume() == 352
    assert boxes == ["open"] * 55_439 and smith == []
    table, _ = adg_report(4)
    assert dec.hstar.coeffs == table.numerator.coeffs == (1, 14, 87, 148, 87, 14, 1)
    assert elapsed < 10.0, elapsed
