"""Placing triangulations of lattice polytopes and h*-decomposition.

A triangulation is a point list plus cells, sorted index tuples; every cell
is a dim(P)-simplex. Placing inserts the vertices only, or every lattice
point, in lexicographic order, so each point lies outside the hull of its
predecessors and appears as a vertex.

`betke_mcmullen` sums h_link(F) * B_F over the faces F, the empty face
included (its link is the whole complex); B_F counts by height the lattice
points of the open parallelepiped of F's lifted vertices. By default the
sum is verified against the enumeration pipeline. A face of a cell whose
solve has every den_i == 1 reads its solve off that cell, so B_F = 0 is
read off with no elimination; other faces solve their own vertices. A
link is counted over the cells that contain its face.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Sequence

from . import linalg
from .cones import HalfOpenSimplicialCone, parallelepiped_points
from .enumeration import ehrhart, enumerate_points
from .errors import (FrozenRecord, InputError, TheoremViolationError, UnsupportedError,
                     _set_field)
from .placing import placing_cells
from .polytope import RationalPolytope
from .ratpoly import HStarData, Poly

IntPoint = tuple[int, ...]


class Simplex(FrozenRecord):
    """A face of a triangulation together with its lifted generators.

    `lifted` holds the rows (v, 1) for each vertex v. `solve` is the
    barycentric solve (T, C) of `lifted` read off a cell whose solve has
    every den_i == 1, or None when no cell containing the face has one; the
    face then keeps its own `linalg.simplex_solve`.
    """

    __slots__ = _fields = ("indices", "lifted", "solve")

    def __init__(self, indices: tuple[int, ...], lifted: tuple[IntPoint, ...],
                 solve: tuple | None = None):
        _set_field(self, "indices", indices)
        _set_field(self, "lifted", lifted)
        _set_field(self, "solve", solve)


class Triangulation:
    """Simplicial complex covering a lattice polytope."""

    def __init__(self, points: Sequence[IntPoint], cells: Sequence[tuple[int, ...]],
                 dim: int):
        self.points = tuple(tuple(int(v) for v in pt) for pt in points)
        self._lifts = tuple(pt + (1,) for pt in self.points)
        self.cells = tuple(tuple(cell) for cell in cells)
        self.dim = dim
        self._faces: tuple[tuple[int, ...], ...] | None = None
        self._owners: dict[tuple[int, ...], tuple | None] | None = None

    def _lifted(self, face: Sequence[int]) -> tuple[IntPoint, ...]:
        return tuple(self._lifts[i] for i in face)

    def _face_owners(self) -> dict[tuple[int, ...], tuple | None]:
        """Every face mapped to (cell, solve) for a cell containing it whose
        solve has every den_i == 1, or to None when no cell containing it
        has one."""
        if self._owners is None:
            owners: dict[tuple[int, ...], tuple | None] = {}
            units = []
            for cell in self.cells:
                solve = linalg.simplex_solve(self._lifted(cell))
                units.append((cell, solve) if all(den == 1 for _, den in solve[0]) else None)
            # den-1 cells claim their faces first
            for cell, unit in sorted(zip(self.cells, units), key=lambda cu: cu[1] is None):
                for size in range(len(cell) + 1):
                    for face in itertools.combinations(cell, size):
                        owners.setdefault(face, unit)
            self._owners = owners
        return self._owners

    def _checked(self, face: Sequence[int]) -> tuple[int, ...]:
        face = tuple(sorted(face))
        if face not in self._face_owners():
            raise InputError(f"{face} is not a face of the triangulation")
        return face

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """All faces of all cells, the empty face included, sorted."""
        if self._faces is None:
            self._faces = tuple(sorted(self._face_owners(), key=lambda f: (len(f), f)))
        return self._faces

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim) with f_-1 = 1 for the empty face."""
        counts = [0] * (self.dim + 2)
        for face in self.faces():
            counts[len(face)] += 1
        return tuple(counts)

    def simplex(self, face: Sequence[int]) -> Simplex:
        """The face's lifted simplex, with the solve of its den-1 cell if any.

        The face's T rows are the cell's at the face's vertices; its C rows
        are the cell's C rows and the cell's T rows at the other vertices.
        """
        face = self._checked(face)
        unit = self._owners[face]
        if unit is None:
            return Simplex(face, self._lifted(face))
        cell, (t_rows, c_rows) = unit
        inside = set(face)
        solve = (tuple(t for v, t in zip(cell, t_rows) if v in inside),
                 c_rows + tuple(row for v, (row, _) in zip(cell, t_rows) if v not in inside))
        return Simplex(face, self._lifted(face), solve)

    def cell_volume(self, cell: Sequence[int]) -> int:
        """Normalized volume of a cell relative to its own lattice."""
        base = self.points[cell[0]]
        edges = [
            [v - b for v, b in zip(self.points[i], base)] for i in cell[1:]
        ]
        return linalg.lattice_normalized_volume(edges)

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
    return Poly([sum(count * (-1) ** (k - j) * comb(e + 1 - j, k - j)
                     for j, count in enumerate(f[:k + 1]))
                 for k in range(e + 2)])


def link_f_vector(t: Triangulation, face: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """f-vector and dimension of the link of a face.

    The link consists of the faces disjoint from `face` whose union with it
    is again a face: the subsets of cell - face over the cells of the
    face's star. Its dimension is dim(T) - |face|.
    """
    face_set = set(t._checked(face))
    link = set()
    for cell in t.cells:
        if face_set.issubset(cell):
            rest = tuple(v for v in cell if v not in face_set)
            for size in range(len(rest) + 1):
                link.update(itertools.combinations(rest, size))
    e = t.dim - len(face_set)
    counts = [0] * (e + 2)
    for other in link:
        counts[len(other)] += 1
    return tuple(counts), e


def box_polynomial(simplex: Simplex) -> Poly:
    """Height generating polynomial of the open parallelepiped of a face.

    B(x) = sum x^(last coordinate) over lattice points of the strictly open
    parallelepiped spanned by the lifted generators. The empty simplex has
    B = 1; every unimodular simplex has B = 0. The box is searched with
    the simplex's solve: the one inherited from a den-1 cell, whose every
    den_i is 1, so that `parallelepiped_points` reads the empty box off
    without a search, or else the face's own cached `linalg.simplex_solve`.
    """
    if not simplex.lifted:
        return Poly([1])
    piece = HalfOpenSimplicialCone(simplex.lifted, (False,) * len(simplex.lifted),
                                   simplex.solve)
    heights: dict[int, int] = {}
    for point in parallelepiped_points(piece, mode="open"):
        heights[point[-1]] = heights.get(point[-1], 0) + 1
    if not heights:
        return Poly()
    top = max(heights)
    return Poly([heights.get(i, 0) for i in range(top + 1)])


class HStarDecomposition(FrozenRecord):
    """Assembled h* with its per-face contributions.

    Each contribution is (face, link h-polynomial, box polynomial); zero
    boxes are omitted.
    """

    __slots__ = _fields = ("hstar", "triangulation", "contributions")

    def __init__(self, hstar: HStarData, triangulation: Triangulation,
                 contributions: tuple[tuple[tuple[int, ...], Poly, Poly], ...]):
        _set_field(self, "hstar", hstar)
        _set_field(self, "triangulation", triangulation)
        _set_field(self, "contributions", contributions)


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
