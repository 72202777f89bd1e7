"""Placing triangulations of lattice polytopes and h*-decomposition.

A triangulation is stored as a point list plus cells given by sorted index
tuples; every cell is a dim(P)-simplex. Two flavors are supported: placing
the vertices only, or placing every lattice point of the polytope. Points
are inserted in lexicographic order, which guarantees each one lies outside
the hull of its predecessors and therefore appears as a vertex.

The h*-numerator of a lattice polytope decomposes over the faces of any of
its triangulations: each face contributes the h-polynomial of its link times
the box polynomial of its lifted simplex (the empty face contributes the
h-polynomial of the whole complex). `betke_mcmullen` assembles that sum
and, by default, verifies it against the enumeration pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .cones import HalfOpenSimplicialCone, parallelepiped_points
from .enumeration import ehrhart, enumerate_points
from .errors import InputError, TheoremViolationError, UnsupportedError
from .linalg import lattice_normalized_volume
from .placing import placing_cells
from .polytope import RationalPolytope
from .ratpoly import HStarData, Poly

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class Simplex:
    """A face of a triangulation together with its lifted generators."""

    indices: tuple[int, ...]
    lifted: tuple[IntPoint, ...]  # rows (v, 1) for each vertex v


class Triangulation:
    """Simplicial complex covering a lattice polytope."""

    def __init__(self, points: Sequence[IntPoint], cells: Sequence[tuple[int, ...]],
                 dim: int):
        self.points = tuple(tuple(int(v) for v in pt) for pt in points)
        self.cells = tuple(tuple(cell) for cell in cells)
        self.dim = dim
        self._faces: tuple[tuple[int, ...], ...] | None = None

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """All faces of all cells, the empty face included, sorted."""
        if self._faces is None:
            seen = set()
            for cell in self.cells:
                for size in range(len(cell) + 1):
                    seen.update(itertools.combinations(cell, size))
            self._faces = tuple(sorted(seen, key=lambda f: (len(f), f)))
        return self._faces

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim) with f_-1 = 1 for the empty face."""
        counts = [0] * (self.dim + 2)
        for face in self.faces():
            counts[len(face)] += 1
        return tuple(counts)

    def simplex(self, face: Sequence[int]) -> Simplex:
        face = tuple(face)
        return Simplex(face, tuple(self.points[i] + (1,) for i in face))

    def cell_volume(self, cell: Sequence[int]) -> int:
        """Normalized volume of a cell relative to its own lattice."""
        base = self.points[cell[0]]
        edges = [
            [v - b for v, b in zip(self.points[i], base)] for i in cell[1:]
        ]
        return lattice_normalized_volume(edges)

    def is_unimodular(self) -> bool:
        return all(self.cell_volume(cell) == 1 for cell in self.cells)

    def normalized_volume(self) -> int:
        return sum(self.cell_volume(cell) for cell in self.cells)


def placing_triangulation(p: RationalPolytope,
                          use_all_lattice_points: bool = False) -> Triangulation:
    """Triangulate a lattice polytope by lexicographic placing."""
    if not p.is_lattice:
        raise UnsupportedError("triangulations are defined for lattice polytopes")
    if use_all_lattice_points:
        points = enumerate_points(p)
    else:
        points = sorted(tuple(int(v) for v in vert) for vert in p.vertices)
    cells = placing_cells([tuple(map(int, pt)) + (1,) for pt in points])
    t = Triangulation(points, cells, p.dim)
    if any(len(cell) != p.dim + 1 for cell in t.cells):
        raise TheoremViolationError("placing produced cells of the wrong dimension")
    used = {i for cell in t.cells for i in cell}
    if used != set(range(len(points))):
        raise TheoremViolationError("lexicographic placing skipped a point")
    return t


def h_polynomial(f: Sequence[int], e: int) -> Poly:
    """h(z) = sum_k f_(k-1) z^k (1-z)^(e+1-k) for a complex of dimension e.

    `f` lists (f_-1, f_0, ..., f_e); the empty complex is f = (1,), e = -1.
    """
    if len(f) != e + 2:
        raise InputError("f-vector must list f_-1 through f_e")
    if f[0] != 1:
        raise InputError("f_-1 must be 1")
    result = Poly()
    for j, count in enumerate(f):
        result = result + count * Poly([0] * j + [1]) * Poly([1, -1]).power(e + 1 - j)
    return result


def link_f_vector(t: Triangulation, face: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """f-vector and dimension of the link of a face.

    The link consists of the faces disjoint from `face` whose union with it
    is again a face; its dimension is dim(T) - |face|.
    """
    face = tuple(sorted(face))
    face_set = set(face)
    all_faces = set(t.faces())
    if face not in all_faces:
        raise InputError(f"{face} is not a face of the triangulation")
    e = t.dim - len(face)
    counts = [0] * (e + 2)
    for other in all_faces:
        if face_set & set(other):
            continue
        if tuple(sorted(face + other)) in all_faces:
            counts[len(other)] += 1
    return tuple(counts), e


def box_polynomial(simplex: Simplex) -> Poly:
    """Height generating polynomial of the open parallelepiped of a face.

    B(x) = sum x^(last coordinate) over lattice points of the strictly open
    parallelepiped spanned by the lifted generators. The empty simplex has
    B = 1; every unimodular simplex has B = 0. `parallelepiped_points`
    recognises a unimodular box without searching it when every
    denominator den_i of the cached `linalg.simplex_solve` of the lifted
    generators is 1; a unimodular face with some den_i > 1 is searched and
    gives B = 0 all the same.
    """
    if not simplex.lifted:
        return Poly([1])
    piece = HalfOpenSimplicialCone(simplex.lifted, (False,) * len(simplex.lifted))
    heights: dict[int, int] = {}
    for point in parallelepiped_points(piece, mode="open"):
        heights[point[-1]] = heights.get(point[-1], 0) + 1
    if not heights:
        return Poly()
    top = max(heights)
    return Poly([heights.get(i, 0) for i in range(top + 1)])


@dataclass(frozen=True)
class HStarDecomposition:
    """Assembled h* with its per-face contributions."""

    hstar: HStarData
    triangulation: Triangulation
    contributions: tuple[tuple[tuple[int, ...], Poly, Poly], ...]
    # (face, link h-polynomial, box polynomial); zero boxes are omitted


def betke_mcmullen(p: RationalPolytope, use_all_lattice_points: bool = False,
                   verify: bool = True) -> HStarDecomposition:
    """Assemble h* from a placing triangulation, face by face.

    Sums h_link(face) * B(face) over every face including the empty one.
    With verify=True the result is checked against the enumeration
    pipeline's h*; a mismatch raises TheoremViolationError.
    """
    t = placing_triangulation(p, use_all_lattice_points)
    total = Poly()
    contributions = []
    for face in t.faces():
        box = box_polynomial(t.simplex(face))
        if not box and face:
            continue
        f_vec, e = link_f_vector(t, face)
        h_link = h_polynomial(f_vec, e)
        contributions.append((face, h_link, box))
        total = total + h_link * box
    hstar = HStarData(total.coeffs, dim=p.dim, period=1)
    if verify:
        expected = ehrhart(p).hstar
        if hstar.coeffs != expected.coeffs:
            raise TheoremViolationError(
                f"assembled h* {hstar.coeffs} differs from counted {expected.coeffs}"
            )
    return HStarDecomposition(hstar, t, tuple(contributions))
