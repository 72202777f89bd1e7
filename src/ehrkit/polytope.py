"""Rational convex polytopes in vertex and half-space form, exactly.

A polytope is stored by its extreme points (lex-sorted tuples of Fraction
coordinates). The half-space form is derived on demand: equalities pin the
affine hull, inequalities are facet half-spaces of the form <a, x> <= c with
(a, c) jointly primitive integer vectors. Facets are read off a placing
triangulation of the points, each placed as the vector (p, 1) scaled to
integers: every facet of the hull is spanned by some boundary facet of any
triangulation. The apex row T_apex of the cell's cached `simplex_solve`
vanishes exactly on that boundary facet's hyperplane, so boundary facets
are grouped by the set of points q with <T_apex, (q, 1)> = 0, one set per
facet of the hull. Only the first boundary facet of each set gives an
inequality: its normal is -T_apex, projected orthogonally onto the hull's
direction space so that it does not depend on the cell it was read from.

The half-space form is built in integers. The points are scaled to
integers once; the equalities are the primitive integer kernel vectors
`linalg.nullspace` reads off the echelon form of their differences; each
facet normal is projected by one integer solve of Gram y = N a, N the
equality normals; and every (a, c) is made jointly primitive with gcd.

Everything is exact; no floats are accepted or produced.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import linalg
from .errors import FrozenRecord, InputError, _set_field
from .placing import boundary_facets, placing_cells
from .ratpoly import RatLike, _coerce

Point = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class HRep(FrozenRecord):
    """Half-space form: <a, x> = c for equalities, <a, x> <= c for facets."""

    __slots__ = _fields = ("equalities", "inequalities")

    def __init__(self, equalities: tuple[tuple[IntVec, int], ...],
                 inequalities: tuple[tuple[IntVec, int], ...]):
        _set_field(self, "equalities", equalities)
        _set_field(self, "inequalities", inequalities)

    def satisfies(self, x: Sequence[Fraction], strict: bool = False) -> bool:
        """Membership test; `strict` makes the facet inequalities strict."""
        xs, den = _scaled(x)
        for a, c in self.equalities:
            if linalg.int_dot(a, xs) != c * den:
                return False
        for a, c in self.inequalities:
            v = linalg.int_dot(a, xs)
            if v > c * den or (strict and v == c * den):
                return False
        return True


def check_region(region: str) -> None:
    """Raise InputError unless region is 'closed' or 'interior'."""
    if region not in ("closed", "interior"):
        raise InputError(f"unknown region {region!r}")


def _scaled(x: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers x * den for the common denominator den > 0 of x's entries."""
    den = lcm(*(v.denominator for v in x))
    return [v.numerator * (den // v.denominator) for v in x], den


def _joint_primitive(normal: Sequence[Fraction], offset: Fraction) -> tuple[IntVec, int]:
    prim = linalg.primitive(tuple(normal) + (offset,))
    return prim[:-1], prim[-1]


class RationalPolytope:
    """Convex hull of finitely many rational points, in normal form."""

    def __init__(self, ambient_dim: int, vertices: Sequence[Point], name: str = "",
                 _hrep: HRep | None = None, _dim: int | None = None):
        self.ambient_dim = ambient_dim
        self.vertices = tuple(vertices)
        self.name = name
        self._hrep = _hrep
        self._dim = _dim
        self._walk_order = None  # enumeration._walk_data, memoised

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_points(points: Iterable[Sequence[RatLike]], name: str = "") -> "RationalPolytope":
        """Normalize a point list: coerce, dedupe, keep extreme points only."""
        pts: list[Point] = []
        seen: set[Point] = set()
        ambient = None
        for raw in points:
            p = tuple(_coerce(v) for v in raw)
            if ambient is None:
                ambient = len(p)
            elif len(p) != ambient:
                raise InputError("points with mixed ambient dimensions")
            if p not in seen:
                seen.add(p)
                pts.append(p)
        if not pts:
            raise InputError("a polytope needs at least one point")
        assert ambient is not None
        hrep, dim = _half_space_form(ambient, pts)
        verts = sorted(p for p in pts if _is_extreme(p, hrep, dim))
        return RationalPolytope(ambient, verts, name=name, _hrep=hrep, _dim=dim)

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        if self._dim is None:
            base = self.vertices[0]
            diffs = [tuple(x - y for x, y in zip(p, base)) for p in self.vertices[1:]]
            self._dim = linalg.rank(diffs)
        return self._dim

    def facets(self) -> HRep:
        """Half-space form (cached)."""
        if self._hrep is None:
            self._hrep, self._dim = _half_space_form(self.ambient_dim, list(self.vertices))
        return self._hrep

    @property
    def is_lattice(self) -> bool:
        return all(v.denominator == 1 for p in self.vertices for v in p)

    def vertex_denominator(self) -> int:
        """lcm of all vertex coordinate denominators (1 for lattice polytopes)."""
        return lcm(*(v.denominator for p in self.vertices for v in p))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        label = self.name or f"{len(self.vertices)} vertices"
        return f"RationalPolytope(dim={self.dim}, ambient={self.ambient_dim}, {label})"

    # -- point queries -----------------------------------------------------

    def contains(self, x: Sequence[RatLike], region: str = "closed") -> bool:
        """Exact membership; region is 'closed' or 'interior' (relative)."""
        check_region(region)
        pt = tuple(_coerce(v) for v in x)
        if len(pt) != self.ambient_dim:
            raise InputError("point has the wrong ambient dimension")
        return self.facets().satisfies(pt, strict=(region == "interior"))

    # -- transforms --------------------------------------------------------

    def dilate(self, t: RatLike) -> "RationalPolytope":
        """Scale by a positive rational factor about the origin."""
        t = _coerce(t)
        if t <= 0:
            raise InputError("dilation factor must be positive")
        verts = sorted(tuple(t * v for v in p) for p in self.vertices)
        hrep = None
        if self._hrep is not None:
            hrep = HRep(
                tuple(_joint_primitive(a, t * c) for a, c in self._hrep.equalities),
                tuple(_joint_primitive(a, t * c) for a, c in self._hrep.inequalities),
            )
        return RationalPolytope(self.ambient_dim, verts, name=self.name,
                                _hrep=hrep, _dim=self._dim)

    def translate(self, shift: Sequence[RatLike]) -> "RationalPolytope":
        s = tuple(_coerce(v) for v in shift)
        if len(s) != self.ambient_dim:
            raise InputError("translation vector has the wrong dimension")
        verts = sorted(tuple(x + y for x, y in zip(p, s)) for p in self.vertices)
        hrep = None
        if self._hrep is not None:
            hrep = HRep(
                tuple(_joint_primitive(a, c + linalg.int_dot(a, s))
                      for a, c in self._hrep.equalities),
                tuple(_joint_primitive(a, c + linalg.int_dot(a, s))
                      for a, c in self._hrep.inequalities),
            )
        return RationalPolytope(self.ambient_dim, verts, name=self.name,
                                _hrep=hrep, _dim=self._dim)

    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Smallest integer box [lo, hi] containing the polytope."""
        import math

        los = []
        his = []
        for j in range(self.ambient_dim):
            coords = [p[j] for p in self.vertices]
            los.append(math.ceil(min(coords)))
            his.append(math.floor(max(coords)))
        return tuple(los), tuple(his)


def contains_polytope(inner: RationalPolytope, outer: RationalPolytope) -> bool:
    """True iff every vertex of `inner` satisfies `outer`'s half-space form."""
    if inner.ambient_dim != outer.ambient_dim:
        raise InputError("containment needs matching ambient dimensions")
    hrep = outer.facets()
    return all(hrep.satisfies(v) for v in inner.vertices)


# -- internals ---------------------------------------------------------------


def _half_space_form(ambient: int, pts: list[Point]) -> tuple[HRep, int]:
    # every point scaled to integers by one positive factor, once: signs,
    # hyperplanes and (up to a positive factor) normals are those of pts
    scale = lcm(*(v.denominator for p in pts for v in p))
    ints = [tuple(v.numerator * (scale // v.denominator) for v in p) for p in pts]
    base = ints[0]
    kernel = linalg.nullspace([[x - y for x, y in zip(q, base)] for q in ints[1:]],
                              ncols=ambient)
    dim = ambient - len(kernel)

    eqs: list[tuple[IntVec, int]] = []
    for a in kernel:
        normal, offset = _int_primitive(a, base, scale)
        if normal[next(i for i, v in enumerate(normal) if v != 0)] < 0:
            normal = tuple(-v for v in normal)
            offset = -offset
        eqs.append((normal, offset))

    facets: dict[frozenset[int], tuple[IntVec, int]] = {}
    if dim >= 1:
        lifted = [p + (scale,) for p in ints]
        for facet, apex in boundary_facets(placing_cells(lifted)):
            # <T_apex, (x, 1)> vanishes on the facet's hyperplane and is
            # positive at the apex, so on the whole hull
            cell = tuple(sorted(facet + (apex,)))
            coords, _ = linalg.simplex_solve(tuple(lifted[v] for v in cell))
            t_apex = coords[cell.index(apex)][0]
            key = frozenset(j for j, q in enumerate(lifted)
                            if not linalg.int_dot(t_apex, q))
            if key not in facets:
                a = _onto_hull(tuple(-v for v in t_apex[:-1]), eqs)
                facets[key] = _int_primitive(a, ints[facet[0]], scale)
    hrep = HRep(tuple(sorted(eqs)), tuple(sorted(set(facets.values()))))
    return hrep, dim


def _int_primitive(a: Sequence[int], q: Sequence[int], scale: int) -> tuple[IntVec, int]:
    """(a, <a, q / scale>) scaled by a positive rational to coprime integers."""
    ints = [scale * v for v in a] + [linalg.int_dot(a, q)]
    g = gcd(*ints)
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


def _onto_hull(a: IntVec, eqs: list[tuple[IntVec, int]]) -> IntVec:
    """A positive integer multiple of the orthogonal projection of a onto the
    hull's direction space, the common kernel of the equality normals N.

    The projection is a - N^T y for the solution y = Y / L of Gram y = N a,
    and L a - N^T Y is that multiple.
    """
    if not eqs:
        return a
    normals = [normal for normal, _ in eqs]
    y, den = linalg.solve_integral([[linalg.int_dot(u, v) for v in normals] for u in normals],
                                   [linalg.int_dot(u, a) for u in normals])
    return tuple(den * v - sum(c * u[j] for c, u in zip(y, normals))
                 for j, v in enumerate(a))


def _is_extreme(p: Point, hrep: HRep, dim: int) -> bool:
    if dim == 0:
        return True
    xs, den = _scaled(p)
    tight = [a for a, c in hrep.inequalities if linalg.int_dot(a, xs) == c * den]
    return linalg.rank(tight) == dim
