"""Placing triangulations of lattice polytopes and h*-decomposition.

A triangulation is a point list plus cells, sorted index tuples, each
kept with the solve the placing made for it; every cell is a
dim(P)-simplex. Placing inserts the vertices only, or every lattice
point, in lexicographic order, so each point lies outside the hull of its
predecessors and appears as a vertex.

`betke_mcmullen` sums h_link(F) * B_F over the faces F, the empty face
included (its link is the whole complex); B_F counts by height the lattice
points of the open parallelepiped of F's lifted vertices. By default the
sum is verified against the enumeration pipeline. Each cell's solve is
made once, by the placing's pivot or jump extension. One pass over the
faces lists each box from the closed `HalfOpenSimplicialCone` over the
face, with the solve sliced off a cell containing it, preferably one with
den_i == 1 at a vertex of F: B_F = 0 when that cell has one, and otherwise
B_F is listed from the Smith form. Only the faces with B_F != 0, the empty
face among them, are sorted and linked. A cell whose den_i are all 1 has
volume 1.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from math import comb

from . import linalg
from .cones import HalfOpenSimplicialCone, parallelepiped_points
from .enumeration import ehrhart, enumerate_points
from .errors import FrozenRecord, InputError, TheoremViolationError, UnsupportedError
from .placing import placing_cells
from .polytope import RationalPolytope
from .ratpoly import HStarData, Poly

IntPoint = tuple[int, ...]


class Triangulation:
    """Simplicial complex covering a lattice polytope."""

    def __init__(self, points: Sequence[IntPoint], placed: Sequence[tuple], dim: int):
        self.points = tuple(tuple(int(v) for v in pt) for pt in points)
        self._lifts = tuple(pt + (1,) for pt in self.points)
        self._placed = tuple(placed)  # (cell, solve) pairs, as placing returns them
        self.cells = tuple(cell for cell, _ in self._placed)
        self.dim = dim
        self._faces: tuple[tuple[int, ...], ...] | None = None
        self._owners: dict[tuple[int, ...], tuple] | None = None

    def _lifted(self, face: Sequence[int]) -> tuple[IntPoint, ...]:
        return tuple(map(self._lifts.__getitem__, face))

    def _face_owners(self) -> dict[tuple[int, ...], tuple]:
        """Every face mapped to (cell, solve) for a cell containing it and
        its solve, preferring a cell whose den_i is 1 at some vertex of the
        face, so that the face's box is read off as empty."""
        if self._owners is None:
            owners: dict[tuple[int, ...], tuple] = {}
            rest = []  # (owner, its vertices with den_i == 1) when some den_i > 1
            for owner in self._placed:
                cell, (t_rows, _) = owner
                unit = {v for v, (_, den) in zip(cell, t_rows) if den == 1}
                if len(unit) < len(cell):
                    rest.append((owner, unit))
                    continue
                for size in range(len(cell) + 1):
                    for face in itertools.combinations(cell, size):
                        owners.setdefault(face, owner)
            for meeting in (True, False):  # first the faces that meet `unit`
                for owner, unit in rest:
                    for size in range(len(owner[0]) + 1):
                        for face in itertools.combinations(owner[0], size):
                            if not (meeting and unit.isdisjoint(face)):
                                owners.setdefault(face, owner)
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

    def simplex(self, face: Sequence[int]) -> HalfOpenSimplicialCone:
        """The closed cone over the face's lifted vertices (v, 1), with its owner's solve."""
        face = self._checked(face)
        return self._piece(face, self._owners[face])

    def _piece(self, face: tuple[int, ...], owner: tuple) -> HalfOpenSimplicialCone:
        """The closed cone over a face of the owner (cell, solve): T rows the
        cell's at the face, C rows the cell's and its T rows off the face."""
        cell, (t_rows, c_rows) = owner
        t_face, c_face = [], list(c_rows)
        for v, t in zip(cell, t_rows):
            if v in face:
                t_face.append(t)
            else:
                c_face.append(t[0])
        return HalfOpenSimplicialCone(self._lifted(face), (False,) * len(face),
                                      (tuple(t_face), tuple(c_face)))

    def cell_volume(self, cell: Sequence[int]) -> int:
        """Normalized volume of a cell relative to its own lattice."""
        base = self.points[cell[0]]
        edges = [
            [v - b for v, b in zip(self.points[i], base)] for i in cell[1:]
        ]
        return linalg.lattice_normalized_volume(edges)

    def is_unimodular(self) -> bool:
        return self.normalized_volume() == len(self.cells)  # every volume is >= 1

    def normalized_volume(self) -> int:
        """Sum of the cell volumes: 1 when a cell's den_i are all 1, as its
        lifted vertices are then a basis of their span's lattice."""
        return sum(1 if all(den == 1 for _, den in t_rows) else self.cell_volume(cell)
                   for cell, (t_rows, _) in self._placed)


def placing_triangulation(p: RationalPolytope,
                          use_all_lattice_points: bool = False) -> Triangulation:
    """Triangulate a lattice polytope by lexicographic placing."""
    if not p.is_lattice:
        raise UnsupportedError("triangulations are defined for lattice polytopes")
    if use_all_lattice_points:
        points = enumerate_points(p)
    else:
        points = sorted(tuple(int(v) for v in vert) for vert in p.vertices)
    placed = placing_cells(tuple(pt + (1,) for pt in points))
    t = Triangulation(points, placed, p.dim)
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


def box_polynomial(piece: HalfOpenSimplicialCone) -> Poly:
    """Height generating polynomial of the open parallelepiped of a face.

    B(x) = sum x^(last coordinate) over lattice points of the strictly open
    parallelepiped spanned by the piece's generators, the lifted vertices
    of a face (`Triangulation.simplex`). The empty face has B = 1; every
    unimodular simplex has B = 0. The box is listed with the solve the
    piece carries: when some den_i is 1, `parallelepiped_points` reads the
    empty box off without a search, and otherwise lists it from the Smith
    form, which never reads the solve.
    """
    if not piece.generators:
        return Poly([1])
    return _heights(parallelepiped_points(piece, mode="open"))


def _heights(points: Sequence[IntPoint]) -> Poly:
    """sum x^(last coordinate) over the points."""
    counts: dict[int, int] = {}
    for point in points:
        counts[point[-1]] = counts.get(point[-1], 0) + 1
    return Poly([counts.get(i, 0) for i in range(max(counts, default=-1) + 1)])


class HStarDecomposition(FrozenRecord):
    """Assembled h* with its per-face contributions.

    Each contribution is (face, link h-polynomial, box polynomial); zero
    boxes are omitted.
    """

    __slots__ = _fields = ("hstar", "triangulation", "contributions")


def betke_mcmullen(p: RationalPolytope, use_all_lattice_points: bool = False,
                   verify: bool = True) -> HStarDecomposition:
    """Assemble h* from a placing triangulation, face by face.

    Sums h_link(face) * B(face) over every face including the empty one.
    The only solves are the placing's, one per cell: each face's box is
    listed with the solve it reads off its owner cell, and only the faces
    with B != 0 are sorted and linked. With verify=True the result is
    checked against the enumeration pipeline's h*; a mismatch raises
    TheoremViolationError.
    """
    t = placing_triangulation(p, use_all_lattice_points)
    boxes = {(): Poly([1])}
    for face, owner in t._face_owners().items():
        if face:
            points = parallelepiped_points(t._piece(face, owner), "open")
            if points:
                boxes[face] = _heights(points)
    total = Poly()
    contributions = []
    for face in sorted(boxes, key=lambda f: (len(f), f)):
        h_link = h_polynomial(*link_f_vector(t, face))
        contributions.append((face, h_link, boxes[face]))
        total = total + h_link * boxes[face]
    hstar = HStarData(total.coeffs, dim=p.dim, period=1)
    if verify:
        expected = ehrhart(p).hstar
        if hstar.coeffs != expected.coeffs:
            raise TheoremViolationError(
                f"assembled h* {hstar.coeffs} differs from counted {expected.coeffs}"
            )
    return HStarDecomposition(hstar, t, tuple(contributions))
