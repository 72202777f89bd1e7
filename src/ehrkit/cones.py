"""Pointed rational cones and their lattice-point generating functions.

A cone is given by integer ray generators. All evaluation goes through a
decomposition into half-open simplicial pieces: the generators themselves
are placed in their given order (no cross-section is built; in a pointed
cone the signs of barycentric coordinates are those of any cross-section),
and each simplicial piece is made half-open by one lexicographic rule
(`decompose`; Koeppe and Verdoolaege, Electron. J. Combin. 15, 2008), so
the pieces partition the cone's lattice points exactly (no
inclusion-exclusion needed). Every piece carries its barycentric solve
(T, C) as data: the `linalg.simplex_solve` of its generators that the
placing returns with its cell; a face of a triangulation cell instead
carries the rows read off the cell's solve (see `triangulation`).
The unimodular read-off of a parallelepiped reads only that solve, and
`partition_check` reads every piece's C rows, T rows and open facets
once, then tests each candidate point against them with integer dots.

The generating function of a half-open simplicial piece is a finite sum over
the lattice points of its half-open fundamental parallelepiped divided by
prod_i (1 - z^{g_i}). Closed cone, open (relative interior) cone, and the
complement conventions are all expressed through which facets are open.

Both hot paths stay in the integers. A piece whose solve has some
denominator 1 has an empty open box, and one whose solve has every
denominator 1 a one-point half-open box, both read off without a search.
Any other box is listed from the Smith form of its generator matrix: one
point per element of the direct sum of the Z/d_i, the quotient of the
span's lattice by the generators' lattice, as in LattE
(De Loera et al., J. Symbolic Comput. 38, 2004) and Normaliz (Bruns, Ichim
and Soeger, J. Symbolic Comput. 74, 2016). No bounding box is walked. The
interior generating function reflects each closed box instead of listing
another. `ConeGF.evaluate` scales every monomial by one integer to a
product of shared integer powers, and sums all pieces over the one common
denominator prod_g (1 - z^g) of the distinct generators, so each
evaluation builds one Fraction. A box of more than MAX_BOX_POINTS points,
or powers over an exponent span of more than MAX_EXPONENT_SPAN (checked on
the generators first), raise UnsupportedError before any listing or table.

Only pointed cones are supported, and pointedness is read off the same
placing: the apex rows of its boundary facets sum to a vector positive on
every generator exactly when the cone is pointed. Any other cone raises
UnsupportedError with a lineality certificate, a generator whose negative
lies in the cone, read off the placing of the lifted generators (g, 1): a
cell that holds (0, 1) gives the coefficients of a vanishing nonnegative
combination of the generators.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, prod
from operator import getitem, mul, sub

from . import linalg
from .enumeration import ehrhart
from .errors import (FrozenRecord, InputError, PoleError, TheoremViolationError,
                     UnsupportedError, _set_field)
from .placing import boundary_rows, placing_cells
from .polytope import RationalPolytope, check_region
from .ratpoly import RatLike, _coerce
from .report import Report, check_rows

IntVec = tuple[int, ...]

# Cones kept by `decompose` and `_closed_boxes`.
# `corpus-verify` touches six, and a check asks for the same cone a few times
# in a row; the bound keeps a process that meets many cones from keeping all
# of them.
_CACHE_SIZE = 64

# Points a fundamental parallelepiped may hold, prod_i d_i of its Smith
# form, before `parallelepiped_points` refuses to list it. The largest box
# of the tests, the corpus, the benchmark workloads and B4 holds 396 points;
# listing 100,000 takes about 0.5 s and 40 MB (Python 3.11.7, one core).
MAX_BOX_POINTS = 100_000

# Widest exponent range hi_j - lo_j of one coordinate that `ConeGF.evaluate`
# builds a power table for. The tests, the corpus and the benchmark workloads
# reach a span of 14; a span of 10,000 took 1.7 s and 91 MB an evaluation.
MAX_EXPONENT_SPAN = 1_000

class RationalCone(FrozenRecord):
    """Cone spanned by integer ray generators (primitive, deduplicated)."""

    __slots__ = _fields = ("ambient_dim", "generators")

    @staticmethod
    def from_rays(rays: Iterable[Sequence[RatLike]]) -> "RationalCone":
        gens: list[IntVec] = []
        ambient = None
        for ray in rays:
            vec = [_coerce(v) for v in ray]
            if ambient is None:
                ambient = len(vec)
            elif len(vec) != ambient:
                raise InputError("generators with mixed ambient dimensions")
            if all(v == 0 for v in vec):
                raise InputError("the zero vector cannot generate a ray")
            prim = linalg.primitive(vec)
            if prim not in gens:
                gens.append(prim)
        if not gens:
            raise InputError("a cone needs at least one generator")
        return RationalCone(ambient, tuple(gens))

    @property
    def dim(self) -> int:
        """The dimension of the generators' span: the size of each cell of
        their placing, which `decompose` reads too."""
        placed = placing_cells(self.generators)
        return len(placed[0][0]) if placed else 0


def homogenize(p: RationalPolytope) -> RationalCone:
    """Cone over P x {1}: generators are primitive multiples of (v, 1)."""
    return RationalCone.from_rays([tuple(v) + (1,) for v in p.vertices])


class HalfOpenSimplicialCone(FrozenRecord):
    """Simplicial cone with some facets removed.

    open_flags[i] refers to the facet spanned by all generators except
    generators[i]: when True, lattice points with zero coefficient on
    generators[i] are excluded.

    `solve` is (T, C) as returned by linalg.simplex_solve(generators), or
    any other solve of them: <T_i, x> / den_i the coefficient of
    generators[i], and C x = 0 exactly on their span. It defaults to
    simplex_solve(generators) and takes no part in equality or repr.
    """

    __slots__ = ("generators", "open_flags", "solve")
    _fields = ("generators", "open_flags")

    def __init__(self, generators: tuple[IntVec, ...], open_flags: tuple[bool, ...],
                 solve: tuple | None = None):
        if len(open_flags) != len(generators):
            raise InputError("one flag per generator required")
        if solve is None:
            # InputError unless simplicial
            solve = linalg.simplex_solve(generators)
        _set_field(self, "generators", generators)
        _set_field(self, "open_flags", open_flags)
        _set_field(self, "solve", solve)


def parallelepiped_points(piece: HalfOpenSimplicialCone,
                          mode: str = "half_open") -> list[IntVec]:
    """Lattice points of the fundamental parallelepiped, sorted.

    mode 'half_open': coefficient i ranges in [0,1) where flag i is False
    and (0,1] where it is True. mode 'open': all coefficients strictly in
    (0,1), the open box used by box polynomials.

    When some den_i of the piece's solve is 1, the coefficient
    <T_i, x> / den_i of every lattice point x is an integer, never in
    (0, 1), so the open box is empty. When every den_i is 1, each lattice
    point of the span has integer coefficients, so the half-open box is the
    one point sum of the generators with open flags. (A unimodular piece
    may still have some den_i > 1, e.g. the single generator (3, 2), whose
    coefficient is read as x_2 / 2; such a piece goes the general way.)

    In general the box points are one representative of each class of the
    span's lattice points modulo the generators' lattice, and that quotient
    is listed from the Smith form U G V = D of the generator matrix G: the
    classes are the points G V (m_i / d_i) for 0 <= m_i < d_i. With
    D = lcm(d) = d_k, the coefficient vector of such a point, times D, is
    c = V (m_i D / d_i), and its representative in the box has c mod D, with
    a zero entry raised to D on a side that is open at 0, and is dropped in
    the open box. Each point is sum_i c_i g_i / D, an exact division, and
    exactly vol = prod d_i candidates are visited; a vol over MAX_BOX_POINTS
    raises UnsupportedError first.
    """
    if mode not in ("half_open", "open"):
        raise InputError(f"unknown parallelepiped mode {mode!r}")
    gens = piece.generators
    n = len(gens[0])
    t_rows, _ = piece.solve
    if mode == "open":
        if any(den == 1 for _, den in t_rows):
            return []
    elif all(den == 1 for _, den in t_rows):
        return [tuple(sum(g[j] for g, flag in zip(gens, piece.open_flags) if flag)
                      for j in range(n))]
    diag, v = linalg.smith_form(gens)
    if prod(diag) > MAX_BOX_POINTS:
        raise UnsupportedError(
            f"the fundamental parallelepiped holds {prod(diag):,} points, over the "
            f"limit of {MAX_BOX_POINTS:,}"
        )
    scale = diag[-1]  # D
    coefficients = [(0,) * len(gens)]
    for i, d in enumerate(diag):
        if d > 1:
            step = [row[i] * (scale // d) for row in v]
            coefficients = [tuple((a + m * b) % scale for a, b in zip(c, step))
                            for c in coefficients for m in range(d)]
    points = []
    for c in coefficients:
        if mode == "half_open":
            c = tuple(scale if flag and not a else a for a, flag in zip(c, piece.open_flags))
        elif not all(c):
            continue
        points.append(tuple(sum(map(mul, c, col)) // scale for col in zip(*gens)))
    return sorted(points)


class ConeGF(FrozenRecord):
    """Materialized generating function: sum over half-open pieces.

    Each piece is (numerator_points, denominator_generators).
    """

    __slots__ = ("pieces", "_plan")
    _fields = ("pieces",)

    def __init__(self, pieces: tuple[tuple[tuple[IntVec, ...], tuple[IntVec, ...]], ...]):
        _set_field(self, "pieces", pieces)
        _set_field(self, "_plan", None)

    def _evaluation_plan(self) -> tuple[tuple[IntVec, ...], tuple[tuple[int, int], ...]]:
        """The distinct generators in first-seen order, and the range
        [lo_j, hi_j] of the j-th exponents of all monomials of all pieces,
        0 included; they do not depend on the point, so they are made once.
        A span hi_j - lo_j over MAX_EXPONENT_SPAN raises UnsupportedError."""
        if self._plan is None:
            generators = tuple(dict.fromkeys(g for _, gens in self.pieces for g in gens))
            monomials = [m for numerator, _ in self.pieces for m in numerator]
            _set_field(self, "_plan", (generators, _exponent_ranges(*generators, *monomials)))
        return self._plan

    def evaluate(self, z: Sequence[RatLike]) -> Fraction:
        """The generating function at a point with nonzero rational coordinates.

        Write z_j = a_j / b_j, and let [lo_j, hi_j] be the range of the j-th
        exponents of all monomials of all pieces, 0 included. Scaled by
        S = prod_j a_j^(-lo_j) b_j^hi_j, every monomial is the integer
        S z^e = prod_j a_j^(e_j - lo_j) b_j^(hi_j - e_j), read from one power
        table per coordinate. The pieces share their generators, so each
        distinct g gives one factor P_g = S - S z^g, which is 0 exactly when
        z^g = 1. The piece sum_m z^m / prod_{g in k} (1 - z^g) is
        N_k S^(|k| - 1) / prod_{g in k} P_g with N_k = sum_m S z^m, and over
        the common denominator prod_g P_g (the generators of a piece are
        distinct) the whole sum is one integer: one Fraction per call.
        """
        pt = _check_point(z, len(self.pieces[0][1][0]))
        generators, ranges = self._evaluation_plan()
        # tables[j][e] = a_j^(e - lo_j) b_j^(hi_j - e), stored at e for e >= 0
        # and at len + e for e < 0, so Python's negative indices read it
        tables = []
        for v, (lo, hi) in zip(pt, ranges):
            a = list(itertools.accumulate([v.numerator] * (hi - lo), mul, initial=1))
            b = list(itertools.accumulate([v.denominator] * (hi - lo), mul, initial=1))
            tables.append([a[e - lo] * b[hi - e]
                           for e in itertools.chain(range(hi + 1), range(lo, 0))])
        scale = prod(table[0] for table in tables)
        factors = {}
        for g in generators:
            term = prod(map(getitem, tables, g))
            if term == scale:
                raise PoleError(f"z^{g} = 1: evaluation point is a pole")
            factors[g] = scale - term
        den = prod(factors.values())
        total = 0
        for numerator, gens in self.pieces:
            num = sum(prod(map(getitem, tables, m)) for m in numerator)
            total += num * scale ** (len(gens) - 1) * (den // prod(map(factors.get, gens)))
        return Fraction(total, den)


def _exponent_ranges(*vectors: IntVec) -> tuple[tuple[int, int], ...]:
    """The range [lo_j, hi_j] of the j-th entries of the vectors, 0 included.
    A span hi_j - lo_j over MAX_EXPONENT_SPAN raises UnsupportedError."""
    ranges = tuple((min(0, *col), max(0, *col)) for col in zip(*vectors))
    span = max(hi - lo for lo, hi in ranges)
    if span > MAX_EXPONENT_SPAN:
        raise UnsupportedError(f"evaluation needs powers over an exponent span of {span:,}, "
                               f"over the limit of {MAX_EXPONENT_SPAN:,}")
    return ranges


def _check_point(z: Sequence[RatLike], ambient: int) -> tuple[Fraction, ...]:
    pt = tuple(_coerce(v) for v in z)
    if len(pt) != ambient:
        raise InputError("evaluation point has the wrong dimension")
    if any(v == 0 for v in pt):
        raise InputError("evaluation points must have nonzero coordinates")
    return pt


def _inner_normal(cone: RationalCone, placed: Sequence[tuple]) -> IntVec:
    """Integer w with <w, g> > 0 for every generator g: the sum of the apex
    rows of the boundary of `placed`, the generators' placing. Any such w
    proves the cone pointed; in a pointed cone each row is an inner normal
    of a facet of the cone (De Loera, Rambau and Santos, Triangulations,
    4.3), and no generator lies on every facet. Otherwise raises
    UnsupportedError with a lineality certificate.
    """
    rows = [row for row, _, _ in boundary_rows(placed).values()]
    w = tuple(map(sum, zip(*rows)))  # () when there is no boundary: 0 on every g
    if any(linalg.int_dot(w, g) <= 0 for g in cone.generators):
        cert = _lineality_certificate(cone)
        raise UnsupportedError(
            f"cone is not pointed: {cert} and its negative both lie in the cone"
        )
    return w


def _lineality_certificate(cone: RationalCone) -> IntVec:
    """A generator g of a cone that is not pointed such that -g lies in the
    cone too. By Gordan's alternative (De Loera, Rambau and Santos,
    Triangulations, 4.3) the cone holds a line exactly when (0, 1) lies in
    the cone over the lifted generators (g, 1), so some cell of their
    placing holds it: its solve has every C row zero there and gives
    lambda >= 0, summing to 1, with sum_i lambda_i g_i = 0. Every g_i with
    lambda_i > 0 then has -g_i in the cone; the first cell's lowest such
    index is named."""
    lifted = tuple(g + (1,) for g in cone.generators)
    origin = (0,) * cone.ambient_dim + (1,)
    for cell, (t_rows, c_rows) in placing_cells(lifted):
        # den_i > 0, so the numerators carry the coefficients' signs
        lam = [linalg.int_dot(row, origin) for row, _ in t_rows]
        if not any(linalg.int_dot(row, origin) for row in c_rows) and min(lam) >= 0:
            return cone.generators[next(i for i, v in zip(cell, lam) if v > 0)]
    raise TheoremViolationError("no inner normal and no lineality certificate found")


@lru_cache(maxsize=_CACHE_SIZE)
def decompose(cone: RationalCone) -> tuple[HalfOpenSimplicialCone, ...]:
    """Half-open simplicial pieces that partition the cone's lattice points.

    The generators g_1, g_2, ... are placed in their given order. With q
    the sum of the first piece's generators, the facet of a piece opposite
    its i-th generator is open when the first nonzero of <T_i, q>,
    <T_i, g_1>, <T_i, g_2>, ... is negative, when q + e g_1 + e^2 g_2 + ...
    lies across that facet for every small e > 0. The g_j lie in the
    cone's span, where the T rows of an embedded cone's pieces agree; the
    ambient unit vectors do not. The first piece, with <T_i, q> = den_i, is closed.
    """
    placed = placing_cells(cone.generators)
    _inner_normal(cone, placed)  # UnsupportedError unless the cone is pointed
    q = tuple(map(sum, zip(*(cone.generators[i] for i in placed[0][0]))))
    order = (q, *cone.generators)
    pieces = []
    for cell, solve in placed:
        gens = tuple(cone.generators[i] for i in cell)
        # den_i > 0, so the numerators carry the coefficients' signs
        flags = tuple(next(v for v in (linalg.int_dot(row, x) for x in order) if v) < 0
                      for row, _ in solve[0])
        pieces.append(HalfOpenSimplicialCone(gens, flags, solve))
    return tuple(pieces)


@lru_cache(maxsize=_CACHE_SIZE)
def _closed_boxes(cone: RationalCone) -> tuple[tuple[IntVec, ...], ...]:
    # the half-open box of each piece of decompose(cone), listed once for
    # both regions
    return tuple(tuple(parallelepiped_points(piece)) for piece in decompose(cone))


def generating_function(cone: RationalCone, region: str = "closed") -> ConeGF:
    """Materialized lattice-point generating function of the (open) cone."""
    check_region(region)
    # the generators' span bounds the evaluation's from below: refuse before listing
    _exponent_ranges(*(g for piece in decompose(cone) for g in piece.generators))
    pieces = []
    for piece, box in zip(decompose(cone), _closed_boxes(cone)):
        if region == "interior":
            # Complementing every flag turns the partition of the closed cone
            # into one of its interior, and maps each coefficient c of a box
            # point to 1 - c: the box point x to sum(g) - x. That reverses the
            # sorted order.
            top = [sum(col) for col in zip(*piece.generators)]
            box = tuple(tuple(map(sub, top, x)) for x in reversed(box))
        pieces.append((box, piece.generators))
    return ConeGF(tuple(pieces))


def sigma_eval(cone: RationalCone, z: Sequence[RatLike],
               region: str = "closed") -> Fraction:
    """Evaluate the cone's generating function at a rational point."""
    return generating_function(cone, region).evaluate(z)


def stanley_reciprocity_check(cone: RationalCone, trials: int = 10,
                              seed: int = 7) -> Report:
    """Verify sigma(1/z) == (-1)^dim sigma_interior(z) at random points."""
    if trials < 1:
        raise InputError("cone reciprocity needs trials >= 1")
    check_rows(f"cone reciprocity report for {trials} trials", trials)
    closed_gf = generating_function(cone, "closed")
    interior_gf = generating_function(cone, "interior")
    sign = (-1) ** cone.dim
    rng = random.Random(seed)
    instances = []
    attempts = 0
    while len(instances) < trials and attempts < 200 * trials:
        attempts += 1
        z = tuple(
            Fraction(rng.choice([1, -1]) * rng.randint(1, 50), rng.randint(1, 50))
            for _ in range(cone.ambient_dim)
        )
        if any(v == 0 for v in z):
            continue
        try:
            lhs = closed_gf.evaluate(tuple(1 / v for v in z))
            rhs = sign * interior_gf.evaluate(z)
        except PoleError:
            continue
        instances.append({"z": [str(v) for v in z], "lhs": lhs, "rhs": rhs,
                          "pass": lhs == rhs})
    if len(instances) < trials:
        raise TheoremViolationError("could not sample enough pole-free points")
    return Report.from_instances(
        "sigma(1/z) == (-1)^dim sigma_interior(z)", instances,
        notes={"generators": [list(g) for g in cone.generators],
               "dim": cone.dim, "seed": seed},
    )


def partition_check(cone: RationalCone, bound: int = 4) -> Report:
    """Brute-force multiset check that the pieces partition the cone points.

    Candidate points come from the height slice 0..bound when every
    generator has positive last coordinate, otherwise from the coordinate
    box [-bound, bound]^ambient. Every candidate in the cone, which some
    closed piece holds, must lie in exactly one half-open piece; every
    candidate outside in none.
    """
    pieces = decompose(cone)
    n = cone.ambient_dim
    heights = [g[-1] for g in cone.generators]
    if all(h > 0 for h in heights):
        lo = [
            floor(sum(min(Fraction(0), Fraction(bound, h) * g[j])
                      for g, h in zip(cone.generators, heights)))
            for j in range(n)
        ]
        hi = [
            ceil(sum(max(Fraction(0), Fraction(bound, h) * g[j])
                     for g, h in zip(cone.generators, heights)))
            for j in range(n)
        ]
        hi[-1] = min(hi[-1], bound)
        mode = f"height slice 0..{bound}"
    else:
        lo = [-bound] * n
        hi = [bound] * n
        mode = f"coordinate box [-{bound}, {bound}]^{n}"

    # each piece's C rows, T numerators and open positions, read once: x is
    # in the closed piece when every C row vanishes and every <T_i, x> >= 0
    # (den_i > 0), and in the half-open one when also <T_i, x> > 0 at each
    # open position i
    rows = [(piece.solve[1], [row for row, _ in piece.solve[0]],
             [i for i, flag in enumerate(piece.open_flags) if flag]) for piece in pieces]
    checked = inside = 0
    violations = []
    for cand in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        checked += 1
        owners, member = 0, False
        for c_rows, t_rows, open_at in rows:
            if c_rows and any(sum(map(mul, row, cand)) for row in c_rows):
                continue
            lam = [sum(map(mul, row, cand)) for row in t_rows]
            if min(lam) < 0:
                continue
            member = True
            owners += all(lam[i] for i in open_at)
        inside += member
        if owners != member:
            violations.append({"point": list(cand), "owners": owners, "in_cone": member})
    instances = [{
        "candidates": checked,
        "cone_points": inside,
        "violations": violations[:10],
        "pass": not violations,
    }]
    return Report.from_instances(
        "half-open pieces partition the cone's lattice points", instances,
        notes={"mode": mode, "pieces": len(pieces)},
    )


def specialization_check(p: RationalPolytope, x0: RatLike,
                         truncation: int = 12) -> Report:
    """Verify sigma_{cone(P)}(1,..,1,x0) equals h*(x0) / (1 - x0^p)^(d+1).

    Also expands the closed form as a power series, h* times 1 / (1 - x^p)
    d + 1 times, each a prefix sum with stride p, and compares its
    coefficients up to x^truncation with the counting quasipolynomial.
    """
    if truncation < 0:
        raise InputError("truncation must be nonnegative")
    # the specialization row and one per coefficient 0..truncation
    check_rows(f"specialization report to truncation {truncation}", truncation + 2)
    x0 = _coerce(x0)
    res = ehrhart(p)
    d, per = res.dim, res.period
    cone = homogenize(p)
    z = (Fraction(1),) * (cone.ambient_dim - 1) + (x0,)
    denominator = (1 - x0 ** per) ** (d + 1)
    if denominator == 0:
        raise PoleError(f"x0 = {x0} is a root of (1 - x^{per})^{d + 1}")
    lhs = sigma_eval(cone, z)
    rhs = res.hstar.poly().evaluate(x0) / denominator
    instances = [{"x0": str(x0), "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}]
    series = [res.hstar.coefficient(n) for n in range(truncation + 1)]
    for _ in range(d + 1):
        for n in range(per, truncation + 1):
            series[n] += series[n - per]
    for n, coeff in enumerate(series):
        instances.append({"n": n, "lhs": coeff, "rhs": res.count(n),
                          "pass": coeff == res.count(n)})
    return Report.from_instances(
        "sigma over cone(P) specializes to the dilate counting series",
        instances,
        notes={"polytope": p.name or repr(p), "period": per, "dim": d},
    )
