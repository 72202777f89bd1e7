"""Cone decomposition, parallelepiped, and generating function tests.

Oracles: product formulas for axis-aligned cones (sigma = prod 1/(1-z_i)),
hand-computed parallelepiped contents for two-generator cones, a scan of the
whole bounding box with exact coefficients for random simplicial pieces
(unimodular ones included), the generating function summed monomial by
monomial in Fraction, closed-form interior series for the standard
triangle, and exact truncated-sum algebra.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from ast import literal_eval
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest

from ehrkit import cones, enumeration, linalg
from ehrkit.cones import (
    MAX_BOX_POINTS,
    MAX_EXPONENT_SPAN,
    ConeGF,
    HalfOpenSimplicialCone,
    RationalCone,
    _closed_boxes,
    _lineality_certificate,
    decompose,
    generating_function,
    homogenize,
    parallelepiped_points,
    partition_check,
    sigma_eval,
    specialization_check,
    stanley_reciprocity_check,
)
from ehrkit.corpus import list_cones
from ehrkit.enumeration import reciprocity_check
from ehrkit.errors import InputError, PoleError, TheoremViolationError, UnsupportedError
from ehrkit.report import MAX_REPORT_ROWS

from helpers import (
    cloud_cone,
    cone_contains,
    dual_interior_vector,
    lattice_points,
    fraction_dot,
    fraction_rank,
    fraction_rref,
    fraction_solve,
    normalize,
)

F = Fraction


def axis_cone(d):
    rays = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    return RationalCone.from_rays(rays)


def cone_over_unit_square():
    return RationalCone.from_rays([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])


def skew_cone():
    return RationalCone.from_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]])


def test_from_rays_normalizes():
    c = RationalCone.from_rays([[2, 4], [1, 2], [0, 3]])
    assert c.generators == ((1, 2), (0, 1))
    with pytest.raises(InputError):
        RationalCone.from_rays([[0, 0]])


def test_dual_interior_vector_and_pointedness():
    w = dual_interior_vector(cone_over_unit_square())
    for g in cone_over_unit_square().generators:
        assert sum(a * b for a, b in zip(w, g)) >= 1
    with pytest.raises(UnsupportedError):
        dual_interior_vector(RationalCone.from_rays([[1, 0], [-1, 0], [0, 1]]))
    with pytest.raises(UnsupportedError):
        dual_interior_vector(RationalCone.from_rays([[1], [-1]]))


def fraction_dual_interior(cone):
    """Oracle: the pointedness certificate solved in Fraction.

    Span coordinates from the rref rows B; each independent k-subset of the
    rows B g gives u with <B g_i, u> = 1 on it, kept when <B g, u> >= 1 for
    every generator; the certificate is w = B^T u, or None.
    """
    basis, _ = fraction_rref(cone.generators)
    k = len(basis)
    rows = [[fraction_dot(g, b) for b in basis] for g in cone.generators]
    for subset in itertools.combinations(range(len(rows)), k):
        sub = [rows[i] for i in subset]
        if fraction_rank(sub) != k:
            continue
        u = fraction_solve(sub, [Fraction(1)] * k)
        if all(fraction_dot(r, u) >= 1 for r in rows):
            return tuple(sum((u[i] * basis[i][j] for i in range(k)), Fraction(0))
                         for j in range(cone.ambient_dim))
    return None


def test_dual_interior_vector_matches_fraction_oracle():
    # the vector read off the placing's boundary differs from the oracle's
    # vertex, but exists for exactly the same cones and is scaled alike
    rng = random.Random(20261021)
    pointed = flat = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        rays = []
        while len(rays) < rng.randint(1, n + 2):
            ray = [rng.randint(-2, 3) for _ in range(n)]
            if any(ray):
                rays.append(ray)
        cone = RationalCone.from_rays(rays)
        expected = fraction_dual_interior(cone)
        if expected is None:
            with pytest.raises(UnsupportedError):
                dual_interior_vector(cone)
            continue
        w = dual_interior_vector(cone)
        assert all(type(v) is Fraction for v in w), rays
        assert min(fraction_dot(w, g) for g in cone.generators) == 1, rays
        pointed += 1
        flat += linalg.rank(cone.generators) < n
    assert pointed >= 200 and 300 - pointed >= 20 and flat >= 50, (pointed, flat)


# 20 rays in R^6 holding the line through e_1; without -e_1 the cone is pointed
LINE_CONE_RAYS = [
    (1, 0, 0, 0, 0, 0), (-2, 2, 2, -1, 0, 2), (0, -2, 1, 0, 1, 2), (1, -2, 0, -1, 0, 2),
    (0, 0, 2, -1, -1, 2), (-1, -2, -2, -2, 2, 2), (-2, -2, 0, -1, 1, 2), (2, 1, 2, -2, -2, 2),
    (-1, -2, 1, 2, -1, 2), (1, 2, -1, 1, 0, 2), (-2, -2, -2, 0, 0, 1), (-2, -1, 1, -2, 2, 1),
    (1, 1, -1, 2, 1, 2), (0, 1, 1, 1, 1, 1), (0, 1, 1, -1, 1, 2), (-2, 2, -1, 1, 0, 2),
    (-2, 1, 1, -2, 0, 2), (1, 0, 0, 0, 2, 1), (-2, 2, 1, 0, -2, 2), (-1, 0, 0, 0, 0, 0),
]


def count_calls(monkeypatch, name):
    """Record the calls of `linalg.<name>` in a list."""
    calls = []
    original = getattr(linalg, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, name, counting)
    return calls


def test_pointedness_of_twenty_rays_in_r6_needs_no_subset_solves(monkeypatch):
    # the certificate comes from the placing, not from one integer solve per
    # 6-subset of the generators (C(20, 6) = 38,760 of them)
    solves = count_calls(monkeypatch, "solve_integral")
    kernels = count_calls(monkeypatch, "nullspace")
    line = RationalCone.from_rays(LINE_CONE_RAYS)
    assert len(line.generators) == 20 and line.dim == 6
    with pytest.raises(UnsupportedError) as info:
        decompose(line)
    assert str(info.value) == ("cone is not pointed: (1, 0, 0, 0, 0, 0) and its "
                               "negative both lie in the cone")
    pointed = RationalCone.from_rays(LINE_CONE_RAYS[:-1])
    assert len(decompose(pointed)) > 1
    assert min(fraction_dot(dual_interior_vector(pointed), g) for g in pointed.generators) == 1
    assert solves == [] and kernels == []


def six_ray_circuit_rays():
    """20 rays in R^6: five independent rays in x_6 = 0 and minus their sum,
    a line whose only vanishing nonnegative combination takes all six, and
    14 rays with x_6 >= 1, which no such combination can use."""
    rng = random.Random(6)
    while True:
        line = [[rng.randint(-2, 2) for _ in range(5)] + [0] for _ in range(5)]
        if fraction_rank(line) == 5:
            break
    line.append([-sum(r[j] for r in line) for j in range(6)])
    rays = line + [[rng.randint(-2, 2) for _ in range(5)] + [rng.randint(1, 2)]
                   for _ in range(14)]
    rng.shuffle(rays)
    return rays


def test_a_line_that_needs_a_long_circuit_gets_a_certificate_from_the_placing(monkeypatch):
    # a search over generator subsets by size would try tens of thousands
    # before the six-ray circuit; the placing of the lifted generators holds
    # (0, 1) in one of its cells and names a generator with no kernel solve
    kernels = count_calls(monkeypatch, "nullspace")
    cone = RationalCone.from_rays(six_ray_circuit_rays())
    assert len(cone.generators) == 20
    start = time.monotonic()
    with pytest.raises(UnsupportedError) as info:
        decompose(cone)
    assert time.monotonic() - start < 1.0
    match = re.fullmatch(r"cone is not pointed: (\(.*\)) and its negative "
                         r"both lie in the cone", str(info.value))
    g = literal_eval(match.group(1))
    assert g in cone.generators and g[-1] == 0
    # -g in the cone of the six rays in x_6 = 0, a subcone
    assert in_cone([-v for v in g], [h for h in cone.generators if h[-1] == 0])
    assert kernels == []


def in_cone(x, generators):
    """Oracle: x is a nonnegative combination of the generators. By
    Caratheodory's theorem it is one of some independent subset, which
    extends to a basis of their span with the same coefficients, so the
    bases among the generators are tried: x is in the cone of one exactly
    when the rref of [B | x] has its pivots on B and a nonnegative last
    column."""
    r = fraction_rank(generators)
    for subset in itertools.combinations(generators, r):
        rref, pivots = fraction_rref([[g[j] for g in subset] + [x[j]]
                                      for j in range(len(x))])
        if pivots == list(range(r)) and all(row[-1] >= 0 for row in rref):
            return True
    return False


def test_lineality_certificate_names_a_generator_whose_negative_is_in_the_cone():
    # Each cone holds a line in x_n = 0: a ray and its negative, or two rays
    # and minus a positive combination of them. Its other rays have x_n >= 1,
    # and sometimes one more is the sum of two of them, a circuit with
    # coefficients of both signs whose first generator's negative is not in
    # the cone.
    rng = random.Random(20261020)
    seen = {"cones": 0, "no opposite generator": 0, "proper span": 0}
    for _ in range(200):
        n = rng.randint(2, 4)
        line = []
        while not line:
            line = [ray for ray in ([rng.randint(-2, 2) for _ in range(n - 1)] + [0]
                                    for _ in range(rng.randint(1, 2))) if any(ray)]
        coeffs = [rng.randint(1, 3) for _ in line]
        line.append([-sum(c * r[j] for c, r in zip(coeffs, line)) for j in range(n)])
        pointed = [[rng.randint(-2, 2) for _ in range(n - 1)] + [rng.randint(1, 2)]
                   for _ in range(rng.randint(1, 3))]
        if len(pointed) >= 2 and rng.random() < 0.5:
            pointed.append([a + b for a, b in zip(*rng.sample(pointed, 2))])
        rays = [r for r in line + pointed if any(r)]
        rng.shuffle(rays)
        cone = RationalCone.from_rays(rays)
        with pytest.raises(UnsupportedError) as info:
            dual_interior_vector(cone)
        match = re.fullmatch(r"cone is not pointed: (\(.*\)) and its negative "
                             r"both lie in the cone", str(info.value))
        g = literal_eval(match.group(1))
        assert g in cone.generators, (rays, g)
        assert in_cone([-v for v in g], cone.generators), (rays, g)
        seen["cones"] += 1
        seen["no opposite generator"] += tuple(-v for v in g) not in cone.generators
        seen["proper span"] += fraction_rank(cone.generators) < n
    assert seen["cones"] == 200 and seen["no opposite generator"] >= 50, seen
    assert seen["proper span"] >= 30, seen


def test_pointedness_agrees_with_the_membership_oracle(monkeypatch):
    # A cone holds a line exactly when some generator's negative lies in it,
    # which `in_cone` decides. Random cones in R^2..R^5 are drawn four ways:
    # rays drawn at random, rays in a random sublattice of lower rank, and k
    # independent rays in x_n = 0 with minus their sum beside rays with
    # x_n >= 1, whose line needs all k + 1 of them, for a random k and for
    # k = 4 in R^5. `decompose` must succeed exactly on the pointed ones and
    # otherwise name a generator whose negative the oracle finds in the
    # cone; on a pointed cone `_lineality_certificate` must find no cell
    # holding (0, 1).
    kernels = count_calls(monkeypatch, "nullspace")
    rng = random.Random(20261022)
    seen = Counter()
    for trial in range(240):
        kind = trial % 4
        n = 5 if kind == 3 else rng.randint(2, 5)
        if kind == 0:
            rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(2, n + 2))]
        elif kind == 1:
            k = rng.randint(1, n - 1)
            basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            rays = [[sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
                    for coeffs in ([rng.randint(-2, 2) for _ in range(k)]
                                   for _ in range(rng.randint(1, k + 2)))]
        else:
            k = 4 if kind == 3 else rng.randint(1, n - 1)
            line = [[rng.randint(-2, 2) for _ in range(n - 1)] + [0] for _ in range(k)]
            if fraction_rank(line) < k:
                continue
            line.append([-sum(r[j] for r in line) for j in range(n)])
            rays = line + [[rng.randint(-2, 2) for _ in range(n - 1)] + [rng.randint(1, 2)]
                           for _ in range(rng.randint(0, 3))]
            seen["long circuit"] += k >= 4
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        rng.shuffle(rays)
        cone = RationalCone.from_rays(rays)
        gens = cone.generators
        try:
            decompose(cone)
        except UnsupportedError as error:
            match = re.fullmatch(r"cone is not pointed: (\(.*\)) and its negative "
                                 r"both lie in the cone", str(error))
            g = literal_eval(match.group(1))
            assert g in gens and in_cone([-v for v in g], gens), (rays, g)
            assert kind < 2 or g[-1] == 0, (rays, g)
            seen["not pointed"] += 1
        else:
            assert not any(in_cone([-v for v in g], gens) for g in gens), rays
            with pytest.raises(TheoremViolationError):
                _lineality_certificate(cone)
            seen["pointed"] += 1
        seen["proper span"] += fraction_rank(gens) < n
    assert seen["pointed"] >= 80 and seen["not pointed"] >= 100, seen
    assert seen["proper span"] >= 80 and seen["long circuit"] >= 40, seen
    assert kernels == []


def test_decompose_simplicial_cone_is_single_closed_piece():
    pieces = decompose(axis_cone(3))
    assert len(pieces) == 1
    assert pieces[0].open_flags == (False, False, False)


def test_decompose_cone_over_square_shared_facet():
    pieces = decompose(cone_over_unit_square())
    assert len(pieces) == 2
    first, second = pieces
    assert first.open_flags == (False, False, False)
    assert sum(second.open_flags) == 1
    # the open facet omits the generator that is not shared with piece one
    open_gen = second.generators[second.open_flags.index(True)]
    assert open_gen not in first.generators
    shared = set(first.generators) & set(second.generators)
    assert len(shared) == 2


def test_parallelepiped_points_two_generator_cones():
    unit = HalfOpenSimplicialCone(((0, 1), (1, 1)), (False, False))
    assert parallelepiped_points(unit, "half_open") == [(0, 0)]
    assert parallelepiped_points(unit, "open") == []
    unit_dual = HalfOpenSimplicialCone(unit.generators, (True, True))
    assert parallelepiped_points(unit_dual, "half_open") == [(1, 2)]

    lifted_wide_segment = HalfOpenSimplicialCone(((0, 0, 1), (2, 0, 1)), (False, False))
    assert parallelepiped_points(lifted_wide_segment, "open") == [(1, 0, 1)]
    assert parallelepiped_points(lifted_wide_segment, "half_open") == [(0, 0, 0), (1, 0, 1)]

    half = HalfOpenSimplicialCone(((0, 1), (1, 2)), (False, False))
    # lambda_2 must be integral in [0,1), which pins the origin alone
    assert parallelepiped_points(half, "half_open") == [(0, 0)]
    half_dual = HalfOpenSimplicialCone(half.generators, (True, True))
    assert parallelepiped_points(half_dual, "half_open") == [(1, 3)]


def parallelepiped_box_scan(piece, mode):
    """Oracle: every point of the parallelepiped's bounding box, tested by
    its exact coefficients on the generators.

    The coefficients come from the inverse of k independent coordinate rows
    of the generator matrix G, scaled to integers: lambda = M x_rows / D.
    A candidate x is in the span iff G (M x_rows) == D x.
    """
    gens = piece.generators
    k, n = len(gens), len(gens[0])
    rows = next(r for r in itertools.combinations(range(n), k)
                if fraction_rank([[g[j] for g in gens] for j in r]) == k)
    square = [[g[j] for g in gens] for j in rows]
    cols = [fraction_solve(square, [int(i == c) for i in range(k)]) for c in range(k)]
    den = lcm(*(v.denominator for col in cols for v in col))
    inverse = [[int(col[i] * den) for col in cols] for i in range(k)]
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]
    out = []
    for cand in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        lam = [sum(m * cand[j] for m, j in zip(row, rows)) for row in inverse]
        if any(sum(c * g[j] for c, g in zip(lam, gens)) != den * cand[j]
               for j in range(n)):
            continue
        if mode == "open":
            ok = all(0 < v < den for v in lam)
        else:
            ok = all(0 < v <= den if flag else 0 <= v < den
                     for v, flag in zip(lam, piece.open_flags))
        if ok:
            out.append(cand)
    return out


def parallelepiped_walk(piece, mode):
    """Oracle: the integer walk `lattice_points` over the parallelepiped's
    bounding box.

    With lambda_i = <T_i, x> / den_i, (T, C) the piece's solve, the points
    are the integer solutions of C x = 0 and 0 <= <T_i, x> <= den_i. All
    data are integers, so an open side is the closed one tightened by 1.
    """
    gens = piece.generators
    n = len(gens[0])
    t_rows, c_rows = piece.solve
    inequalities = []
    for (row, den), flag in zip(t_rows, piece.open_flags):
        bottom_open = flag or mode == "open"
        top_open = not flag or mode == "open"
        inequalities.append((tuple(-a for a in row), -bottom_open))
        inequalities.append((row, den - top_open))
    lo = tuple(sum(min(0, g[j]) for g in gens) for j in range(n))
    hi = tuple(sum(max(0, g[j]) for g in gens) for j in range(n))
    return lattice_points([(row, 0) for row in c_rows], inequalities, lo, hi)


def random_simplicial_piece(rng):
    """Random generators of rank k in R^n, n in 3..5, sometimes lifted (v, 1)."""
    n = rng.randint(3, 5)
    k = rng.randint(1, n)
    lifted = rng.random() < 0.4
    top = 2 if n == 3 else 1  # keeps the bounding boxes small
    while True:
        if lifted:
            gens = [tuple(rng.randint(-1, top) for _ in range(n - 1)) + (1,)
                    for _ in range(k)]
        else:
            gens = [tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(k)]
        if len(set(gens)) == k and linalg.rank(gens) == k:
            flags = tuple(rng.random() < 0.5 for _ in range(k))
            return HalfOpenSimplicialCone(tuple(gens), flags), lifted


def test_parallelepiped_points_match_box_scan_on_random_pieces():
    rng = random.Random(20141)
    cases = non_unimodular = lower_rank = lifted_cases = some_den_one = 0
    for _ in range(400):
        piece, lifted = random_simplicial_piece(rng)
        gens = piece.generators
        n = len(gens[0])
        box = prod(sum(max(0, g[j]) for g in gens) - sum(min(0, g[j]) for g in gens) + 1
                   for j in range(n))
        if box > 400:
            continue
        for mode in ("half_open", "open"):
            expected = parallelepiped_box_scan(piece, mode)
            assert parallelepiped_points(piece, mode) == expected, (gens, piece.open_flags, mode)
            cases += 1
        non_unimodular += len(parallelepiped_points(piece, "half_open")) > 1
        lower_rank += len(gens) < n
        lifted_cases += lifted
        # the open box is read off as empty, not listed
        dens = [den for _, den in piece.solve[0]]
        some_den_one += 1 in dens and max(dens) > 1
    assert cases >= 600
    assert non_unimodular >= 80 and lower_rank >= 200 and lifted_cases >= 100
    assert some_den_one >= 40


def random_wide_piece(rng):
    """(piece, lifted): k <= n generators in R^n, n in 2..6, plain or lifted
    (v, 1), with entries of either sign and normalized volume at most 400,
    random flags. Too large for a scan of the bounding box."""
    n = rng.randint(2, 6)
    k = rng.randint(1, n)
    lifted = rng.random() < 0.5
    top = rng.choice((2, 3, 5)) if n <= 4 else rng.choice((1, 2, 3))
    while True:
        if lifted:
            gens = [tuple(rng.randint(-top, top) for _ in range(n - 1)) + (1,)
                    for _ in range(k)]
        else:
            gens = [tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(k)]
        if (len(set(gens)) == k and linalg.rank(gens) == k
                and linalg.lattice_normalized_volume(gens) <= 400):
            flags = tuple(rng.random() < 0.5 for _ in range(k))
            return HalfOpenSimplicialCone(tuple(gens), flags), lifted


def test_parallelepiped_points_match_walk_on_wide_pieces():
    rng = random.Random(65537)
    seen = {"listed": 0, "large": 0, "lower_rank": 0, "full_rank": 0,
            "lifted": 0, "plain": 0, "negative": 0, "flagged": 0}
    ambient = set()
    for _ in range(400):
        piece, lifted = random_wide_piece(rng)
        gens = piece.generators
        for mode in ("half_open", "open"):
            expected = parallelepiped_walk(piece, mode)
            assert parallelepiped_points(piece, mode) == expected, (gens, piece.open_flags, mode)
        ambient.add(len(gens[0]))
        seen["listed"] += any(den > 1 for _, den in piece.solve[0])
        seen["large"] += linalg.lattice_normalized_volume(gens) >= 50
        seen["lower_rank"] += len(gens) < len(gens[0])
        seen["full_rank"] += len(gens) == len(gens[0])
        seen["lifted"] += lifted
        seen["plain"] += not lifted
        seen["negative"] += any(v < 0 for g in gens for v in g)
        seen["flagged"] += any(piece.open_flags)
    assert ambient == {2, 3, 4, 5, 6}
    assert seen["listed"] >= 200 and seen["large"] >= 15, seen
    assert seen["lower_rank"] >= 200 and seen["full_rank"] >= 90, seen
    assert seen["lifted"] >= 150 and seen["plain"] >= 150, seen
    assert seen["negative"] >= 300 and seen["flagged"] >= 250, seen


def test_half_open_flags_move_boundary_points():
    piece = HalfOpenSimplicialCone(((0, 1), (1, 1)), (True, False))
    # lambda_0 = 0 excluded, so the origin is replaced by its coset
    # representative 1 * g_0 along the open direction
    assert parallelepiped_points(piece, "half_open") == [(0, 1)]


def random_unimodular(rng, n):
    """Columns of a product of elementary integer n x n matrices."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.choice(("add", "swap", "negate"))
        if kind == "add" and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return [tuple(row[c] for row in rows) for c in range(n)]


def random_unimodular_piece(rng):
    """Part of a lattice basis of Z^n, n in 2..4, plain or lifted (v, 1).

    A plain piece is k columns of a unimodular matrix. A lifted piece is
    (t, 1), (t + u_1, 1), ..., (t + u_{k-1}, 1) for columns u_i of a
    unimodular matrix: a unimodular simplex, lifted.
    """
    n = rng.randint(2, 4)
    if rng.random() < 0.5:
        cols = random_unimodular(rng, n)
        gens = rng.sample(cols, rng.randint(1, n))
    else:
        cols = random_unimodular(rng, n - 1)
        t = tuple(rng.randint(-1, 1) for _ in range(n - 1))
        steps = [(0,) * (n - 1)] + rng.sample(cols, rng.randint(0, n - 1))
        gens = [tuple(a + b for a, b in zip(t, u)) + (1,) for u in steps]
    flags = tuple(rng.random() < 0.5 for _ in gens)
    return HalfOpenSimplicialCone(tuple(gens), flags)


def test_unimodular_boxes_match_box_scan():
    # every den_i of these is 1, or some den_i > 1 although the piece is
    # unimodular: (3, 2) has coefficient x_2 / 2 on its span
    fixed = [((3, 2),), ((2, 3, 0), (0, 0, 1)), ((1, 1, 0), (0, 2, 3)),
             ((0, 1), (1, 1)), ((0, 0, 1), (1, 0, 1), (0, 1, 1))]
    pieces = [HalfOpenSimplicialCone(gens, flags) for gens in fixed
              for flags in itertools.product((False, True), repeat=len(gens))]
    rng = random.Random(8191)
    pieces += [random_unimodular_piece(rng) for _ in range(300)]
    read_off = searched = lower_rank = lifted = 0
    for piece in pieces:
        gens = piece.generators
        assert linalg.lattice_normalized_volume(gens) == 1, gens
        box = prod(sum(max(0, g[j]) for g in gens) - sum(min(0, g[j]) for g in gens) + 1
                   for j in range(len(gens[0])))
        if box > 600:
            continue
        for mode in ("half_open", "open"):
            expected = parallelepiped_box_scan(piece, mode)
            assert parallelepiped_points(piece, mode) == expected, (gens, piece.open_flags, mode)
        if all(den == 1 for _, den in linalg.simplex_solve(gens)[0]):
            read_off += 1
        else:
            searched += 1
        lower_rank += len(gens) < len(gens[0])
        lifted += all(g[-1] == 1 for g in gens)
    assert read_off >= 250 and searched >= 25
    assert lower_rank >= 150 and lifted >= 120


def test_sigma_product_formula_on_axis_cones():
    for d in (1, 2, 3):
        cone = axis_cone(d)
        z = tuple(F(1, k + 2) for k in range(d))
        expected = F(1)
        for v in z:
            expected /= 1 - v
        assert sigma_eval(cone, z) == expected
        interior_expected = F(1)
        for v in z:
            interior_expected *= v / (1 - v)
        assert sigma_eval(cone, z, region="interior") == interior_expected


def test_sigma_frozen_value_cone_over_segment():
    cone = RationalCone.from_rays([[0, 1], [1, 1]])
    assert sigma_eval(cone, (2, F(1, 5))) == F(25, 12)


def test_sigma_truncated_sum_identity_quadrant():
    cone = axis_cone(2)
    z = (F(1, 3), F(2, 7))
    sigma = sigma_eval(cone, z)
    cap = 6
    truncated = sum(
        z[0] ** a * z[1] ** b for a in range(cap + 1) for b in range(cap + 1)
    )
    tail = sigma - truncated
    closed_tail = sigma - ((1 - z[0] ** (cap + 1)) / (1 - z[0])) * (
        (1 - z[1] ** (cap + 1)) / (1 - z[1])
    )
    assert tail == closed_tail


def test_sigma_pole_detection():
    with pytest.raises(PoleError):
        sigma_eval(axis_cone(2), (1, F(1, 2)))
    with pytest.raises(InputError):
        sigma_eval(axis_cone(2), (0, F(1, 2)))
    with pytest.raises(InputError):
        sigma_eval(axis_cone(2), (F(1, 2),))


def test_evaluate_checks_its_point():
    cone = RationalCone.from_rays([[1, 0], [1, 2]])
    gf = generating_function(cone)
    assert gf.evaluate(("1/2", "1/3")) == sigma_eval(cone, (F(1, 2), F(1, 3))) == F(42, 17)
    # too short, too long, a zero coordinate and a float
    for z in ((F(1, 2),), (F(1, 2), F(1, 3), F(1, 5)), (0, F(1, 3)), (F(1, 2), 0.5)):
        with pytest.raises(InputError):
            gf.evaluate(z)
    # the generator (-1, 2) puts z_1 under a negative exponent
    skew = generating_function(RationalCone.from_rays([[1, 0], [-1, 2]]))
    with pytest.raises(InputError):
        skew.evaluate((0, F(1, 3)))


def test_evaluation_past_the_exponent_span_limit_is_refused_before_any_table(monkeypatch):
    # the generator (1, 10000) needs powers of z_2 up to 10^4; without the
    # limit one evaluation took 1.7 s and 91 MB, ten times that span ran for
    # minutes, and a hundred times it ran out of memory. The generators' span
    # refuses the cone before its box is listed; a ConeGF built directly is
    # refused by evaluate, before any table
    message = (f"^evaluation needs powers over an exponent span of 10,000, over the "
               f"limit of {MAX_EXPONENT_SPAN:,}$")
    with pytest.raises(UnsupportedError, match=message):
        generating_function(RationalCone.from_rays([[1, 0], [1, 10_000]]))
    gf = ConeGF(((((0, 0),), ((1, 0), (1, 10_000))),))
    with pytest.raises(UnsupportedError, match=message):
        gf.evaluate((F(1, 2), F(1, 3)))
    assert gf._plan is None
    # the span is the widest hi_j - lo_j, 0 included: (1, 0), (-1, 2) and
    # the box point (0, 1) give [-1, 1] and [0, 2]
    skew = RationalCone.from_rays([[1, 0], [-1, 2]])
    monkeypatch.setattr(cones, "MAX_EXPONENT_SPAN", 2)
    assert generating_function(skew).evaluate((F(1, 2), F(1, 3))) == \
        fraction_evaluate(generating_function(skew), (F(1, 2), F(1, 3)))
    monkeypatch.setattr(cones, "MAX_EXPONENT_SPAN", 1)
    with pytest.raises(UnsupportedError, match="span of 2, over the limit of 1$"):
        generating_function(skew).evaluate((F(1, 2), F(1, 3)))
    # the generators (1, 0) and (1, 1) span 1, but the interior's one box
    # point, their sum (2, 1), spans 2: made, then refused by evaluate
    interior = generating_function(RationalCone.from_rays([[1, 0], [1, 1]]), "interior")
    assert interior.pieces == ((((2, 1),), ((1, 0), (1, 1))),)
    with pytest.raises(UnsupportedError, match="span of 2, over the limit of 1$"):
        interior.evaluate((F(1, 2), F(1, 3)))


def test_cone_reciprocity_is_refused_by_the_generators_span_before_any_box(monkeypatch):
    # (1, 0) and (1, 10^5) have a box of 10^5 points, under MAX_BOX_POINTS,
    # whose listing took 0.44 s before the evaluation refused its span
    listed = []
    original = cones.parallelepiped_points

    def listing(piece, mode="half_open"):
        listed.append(piece.generators)
        return original(piece, mode)

    monkeypatch.setattr(cones, "parallelepiped_points", listing)
    _closed_boxes.cache_clear()
    with pytest.raises(UnsupportedError, match=f"^evaluation needs powers over an exponent "
                                               f"span of 100,000, over the limit of "
                                               f"{MAX_EXPONENT_SPAN:,}$"):
        stanley_reciprocity_check(RationalCone.from_rays([[1, 0], [1, 100_000]]))
    assert listed == []


def test_boxes_past_the_point_limit_are_refused_before_listing(monkeypatch):
    # the segment [0, 10^30] lifted: prod d_i = 10^30 classes, which the
    # listing would visit one by one
    huge = HalfOpenSimplicialCone(((0, 1), (10**30, 1)), (False, False))
    for mode in ("half_open", "open"):
        with pytest.raises(UnsupportedError, match=f"^the fundamental parallelepiped holds "
                                                   f"{10**30:,} points, over the limit of "
                                                   f"{MAX_BOX_POINTS:,}$"):
            parallelepiped_points(huge, mode)
    # prod d_i = 6 for (1, 0), (1, 6): listed at a limit of 6, refused at 5
    piece = HalfOpenSimplicialCone(((1, 0), (1, 6)), (False, True))
    monkeypatch.setattr(cones, "MAX_BOX_POINTS", 6)
    assert parallelepiped_points(piece) == [(1, i) for i in range(1, 7)]
    monkeypatch.setattr(cones, "MAX_BOX_POINTS", 5)
    with pytest.raises(UnsupportedError, match="holds 6 points, over the limit of 5$"):
        parallelepiped_points(piece)


def fraction_evaluate(gf, z):
    """Oracle: the generating function summed monomial by monomial in Fraction."""

    def monomial(exponents):
        value = Fraction(1)
        for base, e in zip(z, exponents):
            if e:
                value *= Fraction(base) ** e
        return value

    total = Fraction(0)
    for numerator, denominators in gf.pieces:
        denom = Fraction(1)
        for g in denominators:
            term = monomial(g)
            if term == 1:
                raise PoleError(f"z^{g} = 1: evaluation point is a pole")
            denom *= 1 - term
        total += sum((monomial(m) for m in numerator), Fraction(0)) / denom
    return total


def test_evaluate_matches_fraction_oracle():
    rng = random.Random(57721)
    bases = [F(p, q) for p in range(1, 5) for q in range(1, 4)]
    evaluations = poles = negative = multi_piece = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
        if not any(any(r) for r in rays):
            continue
        try:
            cone = RationalCone.from_rays([r for r in rays if any(r)])
            gfs = [generating_function(cone, region) for region in ("closed", "interior")]
        except UnsupportedError:
            continue  # not pointed
        multi_piece += len(gfs[0].pieces) > 1
        for gf in gfs:
            negative += any(e < 0 for num, den in gf.pieces for v in num + den for e in v)
            for _ in range(4):
                z = tuple(rng.choice((1, -1)) * rng.choice(bases) for _ in range(n))
                try:
                    expected = fraction_evaluate(gf, z)
                except PoleError:
                    with pytest.raises(PoleError):
                        gf.evaluate(z)
                    poles += 1
                    continue
                assert gf.evaluate(z) == expected, (gf, z)
                evaluations += 1
    assert evaluations >= 2000 and poles >= 200
    assert negative >= 450 and multi_piece >= 55


# (dim, size, side) of the seeded clouds below: 10 to 70 pieces per cone,
# every generator shared by several of them
CLOUD_CLASSES = [(3, 14, 4), (4, 12, 3), (4, 16, 3), (5, 12, 2)]


def test_evaluate_matches_fraction_oracle_on_cloud_cones():
    rng = random.Random(271828)
    bases = [F(p, q) for p in range(1, 7) for q in range(1, 6)]
    evaluations = poles = 0
    for dim, size, side in CLOUD_CLASSES:
        for seed in range(2):
            cone = cloud_cone(seed, dim, size, side)
            if seed:  # placed in the other order: the first generator is the largest
                cone = RationalCone.from_rays(cone.generators[::-1])
            closed, interior = (generating_function(cone, region)
                                for region in ("closed", "interior"))
            assert len(closed.pieces) >= 10
            for _ in range(3):
                z = tuple(rng.choice((1, -1)) * rng.choice(bases) for _ in range(dim + 1))
                inverse = tuple(1 / v for v in z)
                try:
                    expected = fraction_evaluate(closed, inverse)
                except PoleError:
                    continue  # a pole drawn at random; one is built below
                assert closed.evaluate(inverse) == expected
                assert interior.evaluate(z) == fraction_evaluate(interior, z)
                evaluations += 2
            # z^g = 1 for a generator g = (v, 1) in several pieces: every
            # coordinate but the last is random, and the last is z^-(v, 0)
            shared = [g for g, count in Counter(g for _, gens in closed.pieces
                                                for g in gens).items() if count >= 3]
            g = rng.choice(shared)
            head = [rng.choice((1, -1)) * rng.choice(bases) for _ in range(dim)]
            z = (*head, 1 / prod(v ** e for v, e in zip(head, g)))
            for gf in (closed, interior):
                with pytest.raises(PoleError) as err:
                    gf.evaluate(z)
                with pytest.raises(PoleError) as oracle_err:
                    fraction_evaluate(gf, z)
                # both name the first generator, in piece order, that is a pole
                assert str(err.value) == str(oracle_err.value)
                named = literal_eval(str(err.value).split(" = ")[0][2:])
                assert prod(F(v) ** e for v, e in zip(z, named)) == 1
                # at (1, ..., 1) every generator is a pole
                with pytest.raises(PoleError, match=re.escape(f"z^{gf.pieces[0][1][0]} = 1")):
                    gf.evaluate((1,) * (dim + 1))
                poles += 1
    assert evaluations >= 40 and poles == 16, evaluations


def test_interior_boxes_reflect_the_closed_boxes():
    # interior pieces are the closed pieces with every flag complemented;
    # their boxes are read off by reflection, not listed again
    rng = random.Random(161803)
    cones = [cloud_cone(seed, dim, size, side)
             for dim, size, side in CLOUD_CLASSES for seed in range(2, 4)]
    while len(cones) < 60:
        n = rng.randint(2, 4)
        rays = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(rng.randint(n + 1, n + 3))]
        try:
            cone = RationalCone.from_rays([r for r in rays if any(r)])
            decompose(cone)
        except (InputError, UnsupportedError):
            continue  # no nonzero ray, or not pointed
        cones.append(cone)
    multi_piece = listed = 0
    for cone in cones:
        interior = generating_function(cone, "interior")
        for piece, (box, gens) in zip(decompose(cone), interior.pieces, strict=True):
            flipped = HalfOpenSimplicialCone(
                piece.generators, tuple(not f for f in piece.open_flags), piece.solve)
            assert list(box) == parallelepiped_points(flipped), (cone, piece)
            assert gens == piece.generators
            listed += len(box) > 1
        multi_piece += len(interior.pieces) > 1
    assert multi_piece >= 45 and listed >= 350, (multi_piece, listed)


def test_cone_caches_are_bounded():
    for cached in (decompose, _closed_boxes):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and len(list_cones()) <= maxsize


def test_stanley_reciprocity_axis_and_skew():
    for cone in (axis_cone(1), axis_cone(2), skew_cone(), cone_over_unit_square()):
        report = stanley_reciprocity_check(cone, trials=10, seed=11)
        assert report.verdict == "pass", report.instances
        assert len(report.instances) == 10
    for trials in (0, -2):
        with pytest.raises(InputError):
            stanley_reciprocity_check(axis_cone(2), trials=trials)


def test_checks_past_the_report_row_limit_are_refused(monkeypatch):
    # one row per trial and per n, and the specialization row with one per
    # coefficient 0..truncation: exact at the limit, and refused past it
    # before the cone is decomposed or the polytope counted
    square = normalize([[0, 0], [1, 0], [0, 1], [1, 1]], name="unit_square")
    checks = [(lambda rows: stanley_reciprocity_check(axis_cone(2), trials=rows),
               "cone reciprocity report for {} trials", 0),
              (lambda rows: specialization_check(square, F(1, 2), truncation=rows - 2),
               "specialization report to truncation {}", 2),
              (lambda rows: reciprocity_check(square, max_n=rows), "reciprocity report for n <= {}", 0)]
    for check, _, _ in checks:
        assert len(check(7).instances) == 7
    calls = []
    monkeypatch.setattr(cones, "decompose", lambda *args: calls.append(args))
    monkeypatch.setattr(cones, "ehrhart", lambda *args: calls.append(args))
    monkeypatch.setattr(enumeration, "ehrhart", lambda *args: calls.append(args))
    for check, name, extra in checks:
        for rows in (MAX_REPORT_ROWS + 1, 10**9):
            with pytest.raises(UnsupportedError) as info:
                check(rows)
            assert str(info.value) == (f"the {name.format(rows - extra)} holds {rows:,} "
                                       f"rows, over the limit of {MAX_REPORT_ROWS:,}")
    assert calls == []


def test_stanley_reciprocity_single_point_value():
    # sigma(1/2) = 2 and sigma_interior(2) = -2 on the half-line
    cone = axis_cone(1)
    assert sigma_eval(cone, (F(1, 2),)) == 2
    assert sigma_eval(cone, (2,), region="interior") == -2


def test_partition_property_all_test_cones():
    for cone, expect_mode in [
        (axis_cone(1), "height slice"),
        (axis_cone(2), "coordinate box"),
        (axis_cone(3), "coordinate box"),
        (cone_over_unit_square(), "height slice"),
        (RationalCone.from_rays([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]),
         "height slice"),
        (skew_cone(), "coordinate box"),
    ]:
        report = partition_check(cone, bound=3)
        assert report.verdict == "pass", (cone.generators, report.instances)
        assert report.notes["mode"].startswith(expect_mode)


def test_cone_contains():
    cone = skew_cone()
    assert cone_contains(cone, (1, 1, -1))
    assert cone_contains(cone, (2, 1, 0))
    assert not cone_contains(cone, (-1, 0, 0))


def test_homogenize_primitive_lift():
    p = normalize([["0"], ["1/2"]])
    cone = homogenize(p)
    assert cone.generators == ((0, 1), (1, 2))


def test_specialization_check_unit_segment():
    p = normalize([[0], [1]], name="unit_segment")
    report = specialization_check(p, F(1, 2), truncation=8)
    assert report.verdict == "pass"
    assert report.instances[0]["lhs"] == 4  # 1/(1-x)^2 at 1/2
    # truncation 0 still compares the constant coefficient; a negative one none
    assert len(specialization_check(p, F(1, 2), truncation=0).instances) == 2
    with pytest.raises(InputError):
        specialization_check(p, F(1, 2), truncation=-1)


def test_specialization_check_rational_and_pole():
    p = normalize([["0"], ["1/2"]], name="half_segment")
    report = specialization_check(p, F(1, 3), truncation=8)
    assert report.verdict == "pass"
    with pytest.raises(PoleError):
        specialization_check(p, -1)


def test_interior_sigma_matches_interior_series_triangle():
    # interior counts of the standard triangle give x^3/(1-x)^3 at x = 1/3
    tri = normalize([[0, 0], [1, 0], [0, 1]])
    cone = homogenize(tri)
    lhs = sigma_eval(cone, (1, 1, F(1, 3)), region="interior")
    assert lhs == F(1, 27) / F(8, 27)
