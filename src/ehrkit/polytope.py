"""Rational convex polytopes in vertex and half-space form, exactly.

A polytope is stored by its extreme points (lex-sorted tuples of Fraction
coordinates). The half-space form is derived on demand: equalities pin the
affine hull, inequalities are facet half-spaces of the form <a, x> <= c with
(a, c) jointly primitive integer vectors. Facets are read off a placing
triangulation of the points, each placed as the vector (p, 1) scaled to
integers: every facet of the hull is spanned by some boundary facet of any
triangulation. `placing.boundary_rows` maps each boundary facet to the
apex row T_apex of the `simplex_solve` that placing returns with its
cell, which vanishes exactly on that boundary facet's hyperplane, so
boundary facets are grouped by the set of points q with
<T_apex, (q, 1)> = 0, one set per facet of the hull. Only the first
boundary facet of each set gives an inequality: its normal is -T_apex,
projected orthogonally onto the hull's direction space so that it does
not depend on the cell it was read from.
The same sets give the vertices: a point is a vertex exactly when the sets
that contain it meet in it alone. The polytope keeps the lifted points its
hull placed and that placing's (cell, solve) pairs, so `relative_volume`
reads the same placing back without placing again.

The half-space form is built in integers. The points are scaled to
integers once. The equalities are read off the same placing: its span rows
C, shared by every cell's solve, vanish exactly on the span of the lifted
points, so each row (c, c_0) gives the equality <c, x> = -c_0, and dim is
the ambient dimension less their number. The facet normals are projected
by one integer matrix, from one solve of Gram Y = L N, N the equality
normals; and every facet's (a, c) is made jointly primitive with gcd.

Everything is exact; no floats are accepted or produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import ceil, factorial, floor, gcd, lcm

from . import linalg
from .errors import FrozenRecord, InputError
from .placing import boundary_rows, placing_cells
from .ratpoly import RatLike, _coerce

Point = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class HRep(FrozenRecord):
    """Half-space form: <a, x> = c for equalities, <a, x> <= c for facets.

    Both are tuples of jointly primitive integer pairs (a, c), sorted for a
    hull. A hull's equalities are the pairs (c, -c_0) for the rows (c, c_0)
    of the reduced row echelon basis of {(c, c_0) : <c, p> + c_0 = 0 at
    every point p}, each scaled to primitive integers with a positive
    leading entry, so they do not depend on the order of the points; a
    dilate or a translate moves its pairs instead.
    """

    __slots__ = _fields = ("equalities", "inequalities")

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

    def __init__(self, ambient_dim: int, vertices: Sequence[Point], name: str = "", *,
                 _hrep: HRep, _dim: int, _lifted: tuple | None = None,
                 _placed: tuple | None = None):
        self.ambient_dim = ambient_dim
        self.vertices = tuple(vertices)
        self.name = name
        self._hrep = _hrep
        self._dim = _dim
        self._lifted = _lifted  # the vectors (q L, L) the hull placed, if it did
        self._placed = _placed  # and the (cell, solve) pairs of that placing
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
        hrep, dim, verts, lifted, placed = _half_space_form(ambient, pts)
        return RationalPolytope(ambient, sorted(verts), name=name, _hrep=hrep, _dim=dim,
                                _lifted=lifted, _placed=placed)

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def facets(self) -> HRep:
        """Half-space form, made with the polytope."""
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
        return self._moved([tuple(t * v for v in p) for p in self.vertices],
                           lambda a, c: t * c)

    def translate(self, shift: Sequence[RatLike]) -> "RationalPolytope":
        s = tuple(_coerce(v) for v in shift)
        if len(s) != self.ambient_dim:
            raise InputError("translation vector has the wrong dimension")
        return self._moved([tuple(x + y for x, y in zip(p, s)) for p in self.vertices],
                           lambda a, c: c + linalg.int_dot(a, s))

    def _moved(self, verts: list[Point], offset) -> "RationalPolytope":
        """The polytope on `verts`, with each (a, c) of the half-space form
        moved to (a, offset(a, c)) and made jointly primitive."""
        hrep = HRep(*(tuple(_joint_primitive(a, offset(a, c)) for a, c in part)
                      for part in (self._hrep.equalities, self._hrep.inequalities)))
        return RationalPolytope(self.ambient_dim, sorted(verts), name=self.name,
                                _hrep=hrep, _dim=self._dim)

    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Smallest integer box [lo, hi] containing the polytope."""
        columns = list(zip(*self.vertices))
        return tuple(ceil(min(c)) for c in columns), tuple(floor(max(c)) for c in columns)


def relative_volume(p: RationalPolytope) -> Fraction:
    """The volume of p relative to the lattice of its direction space: the
    leading coefficient of every nonzero constituent of its Ehrhart
    quasipolynomial.

    Read off a placing of the lifted points (q L, L), L a common denominator:
    the points the hull placed, or else p's vertices. Let Λ be the lattice
    points of their span, ind(cell) the index in Λ of a cell's vectors and g
    the gcd of the last coordinates over Λ. The cells' pyramids over the
    L-th dilate fill Λ-volume sum ind / (d+1)!, and the heights of Λ's
    layers are g apart, so vol = g sum ind / (L^(d+1) d!). ind is 1 for a
    cell whose den_i are all 1, as its vectors are then a basis of Λ, and
    otherwise the product of its Smith invariant factors. g divides L, as
    the lifted points lie in Λ, and is 1 for a full-dimensional p; otherwise
    it is read off one cell's Smith form U A V = D, as Λ has the basis
    (A V)_i / d_i. The hull's placing is kept on p, so only a dilate or a
    translate, which has none, places again.
    """
    lifted, placed = p._lifted, p._placed
    if lifted is None:
        scale = p.vertex_denominator()
        lifted = tuple(tuple(v.numerator * (scale // v.denominator) for v in q) + (scale,)
                       for q in p.vertices)
        placed = placing_cells(lifted)
    scale, d = lifted[0][-1], p.dim
    total = sum(1 if all(den == 1 for _, den in t_rows)
                else linalg.lattice_normalized_volume([lifted[i] for i in cell])
                for cell, (t_rows, _) in placed)
    g = 1
    if d < p.ambient_dim and scale > 1:
        factors, v = linalg.smith_form([lifted[i] for i in placed[0][0]])
        g = gcd(*(scale * sum(column) // f for column, f in zip(zip(*v), factors)))
    return Fraction(g * total, scale ** (d + 1) * factorial(d))


def contains_polytope(inner: RationalPolytope, outer: RationalPolytope) -> bool:
    """True iff every vertex of `inner` satisfies `outer`'s half-space form."""
    if inner.ambient_dim != outer.ambient_dim:
        raise InputError("containment needs matching ambient dimensions")
    hrep = outer.facets()
    return all(hrep.satisfies(v) for v in inner.vertices)


# -- internals ---------------------------------------------------------------


def _half_space_form(ambient: int,
                     pts: list[Point]) -> tuple[HRep, int, list[Point], tuple, tuple]:
    """The half-space form, the dimension, the points that are vertices, the
    lifted points that were placed and their (cell, solve) pairs."""
    # every point scaled to integers by one positive factor, once: signs,
    # hyperplanes and (up to a positive factor) normals are those of pts
    scale = lcm(*(v.denominator for p in pts for v in p))
    ints = [tuple(v.numerator * (scale // v.denominator) for v in p) for p in pts]
    lifted = tuple(p + (scale,) for p in ints)
    placed = placing_cells(lifted)
    # a span row (c, c_0) vanishes at every (q L, L): <c, q> = -c_0
    eqs = [(row[:-1], -row[-1]) for row in placed[0][1][1]]
    dim = ambient - len(eqs)

    facets: dict[frozenset[int], tuple[IntVec, int]] = {}
    if dim >= 1:
        projection = _projection([normal for normal, _ in eqs])
        for facet, (t_apex, _, _) in boundary_rows(placed).items():
            if any(key.issuperset(facet) for key in facets):
                continue  # it spans that key's hyperplane: the same key
            # <T_apex, (x, 1)> vanishes on the facet's hyperplane and is
            # positive at the apex, so on the whole hull
            key = frozenset(j for j, q in enumerate(lifted)
                            if not linalg.int_dot(t_apex, q))
            a = tuple(-v for v in t_apex[:-1])
            if projection:
                a = tuple(linalg.int_dot(row, a) for row in projection)
            facets[key] = _int_primitive(a, ints[facet[0]], scale)
    hrep = HRep(tuple(sorted(eqs)), tuple(sorted(set(facets.values()))))
    # a point is a vertex exactly when the facets through it meet in it alone
    # (with no facet through it, it is the only point)
    everything = frozenset(range(len(pts)))
    vertices = [p for j, p in enumerate(pts)
                if everything.intersection(*(key for key in facets if j in key)) == {j}]
    return hrep, dim, vertices, lifted, placed


def _int_primitive(a: Sequence[int], q: Sequence[int], scale: int) -> tuple[IntVec, int]:
    """(a, <a, q / scale>) scaled by a positive rational to coprime integers."""
    ints = [scale * v for v in a] + [linalg.int_dot(a, q)]
    g = gcd(*ints)
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


def _projection(normals: list[IntVec]) -> list[IntVec] | None:
    """L I - N^T Y, for Y / L with L > 0 solving Gram Y = N, N the equality
    normals: a positive multiple of the orthogonal projection onto their
    common kernel, the hull's direction space. None without equalities."""
    if not normals:
        return None
    y, den = linalg.solve_integral([[linalg.int_dot(u, v) for v in normals] for u in normals],
                                   normals)
    return [tuple(den * (i == j) - linalg.int_dot(n_i, y_j) for j, y_j in enumerate(zip(*y)))
            for i, n_i in enumerate(zip(*normals))]
