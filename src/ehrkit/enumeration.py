"""Lattice-point enumeration and the Ehrhart counting pipeline.

`_walk` is the one integer point search: it walks the coordinates of a box
depth-first, narrowing each coordinate's range with exact integer interval
arithmetic on integer inequalities. The ranges are sound at every depth
and exact at the last coordinate, where nothing follows, so the walk takes
the whole run prefix x [low, high] at once; no point is re-checked. The
depth before last reads those runs inline: for each of its values it moves
the rooms of the rows that bound the last coordinate and takes the run
from them, in one loop per prefix, with no call per run. In the same pass
it carries the range of the interior system, every inequality <a, x> <= c
lowered to c - 1, and a flag saying whether the prefix can still reach
it, so one walk gives the closed and the interior counts as sums of run
lengths.

Each facet row bounds a coordinate on its own, so most values of the
depth before last would find an empty last run. After the facet rows, the
walk data therefore carry the rows of one Fourier-Motzkin step that
projects out the last coordinate, one from each adjacent pair of an upper
and a lower facet. They bound the polytope's shadow on the coordinates
before the last, so the walk skips the values over which the polytope has
no section.

Every walk is full-dimensional: it has no equality rows. Equalities are
solved before the walk, in lattice coordinates of their solution set.
`_lattice_basis` takes the Smith form U E V = D of the equality normals
E; V is unimodular, so x = V y runs over the lattice exactly when y does,
and the equalities fix the first k coordinates of y. The walk runs over
the others, with each inequality's fixed part moved to its bound. An
embedded polytope such as the Birkhoff polytope B_n, all of whose
coordinates lie in equalities, is walked in its (n-1)^2 free coordinates,
and a dilate whose fixed coordinates are not integers holds no lattice
point and counts 0 without a walk. A full-dimensional polytope has V = I.

The walk costs one visit per prefix, and a skewed polytope fills little of
its box, so the free coordinates are changed once more, by a unimodular U
that reduces them to the polytope's shape (H. W. Lenstra, Math. Oper. Res.
8, 1983): the LLL reduction of the free lattice under the integer scatter
of the vertex images, whose short vectors are directions along which the
polytope is thin. U is kept only when the box of the vertex images then
holds strictly fewer cells. A unimodular map keeps the lattice, so counts
and listings do not change; the walks of the skewed rational simplices of
the `dilate_counts` benchmark take less than half the time.

`region_counts` and `count_points` feed the walk the half-space form of a
dilate and build no points. The half-space data are integers, so for a
lattice point the strict facet inequality <a, x> < c is the same as
<a, x> <= c - 1, and that lowered system is the relative interior.
`enumerate_points` lists any dilate's points from the same walk data
by expanding the runs and mapping each point back by x = V y, V's free
columns taken through U^-1. Counts do not depend on the coordinate order
and listings are sorted, so every walk runs last the free coordinate along
which the polytope has the longest runs. (Fundamental parallelepipeds are
not walked:
`cones.parallelepiped_points` lists them from a Smith form.)

`ehrhart` counts the dilates 1..p(d+1)-1 in one walk each. That window
fixes the h*-numerator over (1 - x^p)^(d+1), which
`ratpoly.hstar_from_counts` reads off by an integer convolution, and the
closed and interior counting quasipolynomials, read off the closed and
interior series numerators in the binomial basis. No dilate is walked past
the window to certify it; a second algorithm does, the placing that gives
`polytope.relative_volume`. Every nonzero constituent has degree d
and leads with that volume (each of a full-dimensional polytope is
nonzero), and a constituent's lead is a d-th difference of its counts with
no zero weight, so it moves with any one count. The interior numerator's
coefficient at x^(p(d+1)), the one that needs the count at p(d+1), is the
one that makes interior constituent 0 lead with the volume. Each interior
constituent r must then equal (-1)^d times closed constituent -r mod p at
-n, coefficient by coefficient. If the counts fail any of this, or h* is
not a nonnegative integer vector, that is a bug, not a warning.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

from . import linalg
from .errors import FrozenRecord, InputError, TheoremViolationError, UnsupportedError
from .polytope import RationalPolytope, check_region, relative_volume
from .ratpoly import check_int, hstar_from_counts, quasi_from_numerator, series_numerator
from .report import Report, check_rows

IntPoint = tuple[int, ...]

# Points `enumerate_points` may list, the exact count its walk takes, before
# it refuses to expand the walk's runs. The largest listing of the tests
# holds 39,775 points, that of the corpus, the benchmark workloads and B4
# 27; listing 500,000 takes 0.5-1.2 s and about 100 MB (Python 3.11.7, one
# core).
MAX_LISTED_POINTS = 500_000


def _walk(inequalities, lo: IntPoint, hi: IntPoint, interior: bool,
          runs: list | None = None) -> tuple[int, int]:
    """Count the integer points of the box lo <= x <= hi in two regions.

    Returns (closed, interior): closed counts the x with <a, x> <= c for
    every (a, c) in inequalities, interior those that also satisfy each
    inequality with c - 1 (0 unless `interior`). When `runs` is given, each
    closed run is appended to it as (prefix, low, high): the points
    prefix + (v,) for low <= v <= high. In dimension 0 there is no last
    coordinate and so no run; the empty point is counted on its own.

    The recursion stops at the depth before last, which loops over its
    values and computes each value's run at the last coordinate inline; the
    interior run only where the prefix can still reach the interior. With
    one coordinate that loop runs once, over the empty prefix.
    """
    n = len(lo)
    closed_bounds = [c for _, c in inequalities]
    interior_bounds = [c - 1 for c in closed_bounds]
    # steps[j] holds (row, a_j, min of <a, x> over the box coordinates after
    # j) for each row whose coefficient a_j is nonzero
    steps: list[list[tuple]] = [[] for _ in range(n)]
    inside = interior
    for k, (a, c) in enumerate(inequalities):
        tail = 0
        for j in range(n - 1, -1, -1):
            if a[j]:
                steps[j].append((k, a[j], tail))
            tail += min(a[j] * lo[j], a[j] * hi[j])
        # Up to its first nonzero coefficient a row is decided by the box
        # alone. From there on every chosen value keeps it satisfiable by the
        # rest of the box, so zero coefficients need no test in the walk.
        if tail > c:
            return 0, 0
        if tail > c - 1:
            inside = False
    if n == 0:
        return 1, int(inside)

    partial = [0] * len(inequalities)
    prefix = [0] * n
    last = n - 1
    before = last - 1  # -1 with one coordinate, whose runs have the empty prefix
    # (row, a_before, a_last) for the rows that bound the last coordinate,
    # split by the sign of a_last
    bounding = [(k, inequalities[k][0][before] if last else 0, coef)
                for k, coef, _ in steps[last]]
    tops = [row for row in bounding if row[2] > 0]
    bottoms = [row for row in bounding if row[2] < 0]
    end_lo, end_hi = lo[last], hi[last]
    totals = [0, 0]

    def span(depth: int, bounds: list[int]) -> tuple[int, int]:
        """Range of coordinate `depth` left by the partial sums under `bounds`."""
        low, high = lo[depth], hi[depth]
        for k, coef, tail in steps[depth]:
            room = bounds[k] - partial[k] - tail
            if coef > 0:
                top = room // coef
                if top < high:
                    high = top
            else:
                bottom = -(-room // coef)
                if bottom > low:
                    low = bottom
        return low, high

    def ends(low: int, high: int, inner_low: int, inner_high: int) -> None:
        """Count the last coordinate's runs for the values low..high of
        coordinate `before`, the partial sums holding the prefix before it,
        and the interior runs for the values in inner_low..inner_high."""
        uppers = [(closed_bounds[k] - partial[k], step, coef) for k, step, coef in tops]
        lowers = [(closed_bounds[k] - partial[k], step, -coef) for k, step, coef in bottoms]
        closed = interior = 0
        for value in range(low, high + 1):
            # a row a_last v <= room gives v <= room // a_last, or for
            # a_last < 0 it gives -v <= room // -a_last: top and cut bound v, -v
            top, cut = end_hi, -end_lo
            for room, step, coef in uppers:
                bound = (room - step * value) // coef
                if bound < top:
                    top = bound
            for room, step, coef in lowers:
                bound = (room - step * value) // coef
                if bound < cut:
                    cut = bound
            if top < -cut:
                continue
            closed += top + cut + 1
            if runs is not None:
                prefix[before] = value
                runs.append((tuple(prefix[:last]), -cut, top))
            if inner_low <= value <= inner_high:
                top, cut = end_hi, -end_lo
                for room, step, coef in uppers:
                    bound = (room - 1 - step * value) // coef
                    if bound < top:
                        top = bound
                for room, step, coef in lowers:
                    bound = (room - 1 - step * value) // coef
                    if bound < cut:
                        cut = bound
                if top >= -cut:
                    interior += top + cut + 1
        totals[0] += closed
        totals[1] += interior

    def walk(depth: int, inside: bool) -> None:
        low, high = span(depth, closed_bounds)
        if low > high:
            return
        inner_low, inner_high = span(depth, interior_bounds) if inside else (0, -1)
        if depth == before:
            ends(low, high, inner_low, inner_high)
            return
        moves = [(k, coef, partial[k]) for k, coef, _ in steps[depth]]
        for value in range(low, high + 1):
            for k, coef, base in moves:
                partial[k] = base + coef * value
            prefix[depth] = value
            walk(depth + 1, inner_low <= value <= inner_high)
        for k, _, base in moves:
            partial[k] = base

    try:
        if last:
            walk(0, inside)
        else:
            ends(0, 0, 0, 0 if inside else -1)
    finally:
        del walk  # the closure refers to itself: break that cycle on the way out
    return totals[0], totals[1]


def _lattice_basis(equalities, ambient: int):
    """Lattice coordinates adapted to the solution set of integer equalities.

    The equality normals must be independent. Returns (V, V_inv, Y, L): V
    is a unimodular matrix (a list of rows) with inverse V_inv, so x = V y
    maps Z^ambient onto itself, and <a, x> == c holds for every (a, c) in
    equalities exactly when y_i = Y_i / L for i < k = len(equalities); the
    other coordinates of y are free. V is the column transform of the Smith
    form U E V = D of the equality normals E, so column i < k of E V is
    d_i u_i for a basis u of Z^k and the columns from k on vanish; Y / L
    solves (E V)_fixed y = e, which is d_i y_i = c_i for the integer
    solution c = U e of sum_i c_i u_i = e. V_inv is read off the simplex
    solve of V's columns, all of whose denominators are 1. No equalities
    give V = I.
    """
    if not equalities:
        identity = [tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
        return identity, identity, (), 1
    k = len(equalities)
    _, v = linalg.smith_form(list(zip(*(a for a, _ in equalities))))
    columns = tuple(zip(*v))
    solved, den = linalg.solve_integral(
        [[linalg.int_dot(a, col) for col in columns[:k]] for a, _ in equalities],
        [(c,) for _, c in equalities])
    t_rows, _ = linalg.simplex_solve(columns)
    return v, [row for row, _ in t_rows], tuple(y for y, in solved), den


def enumerate_points(p: RationalPolytope, region: str = "closed",
                     n: int = 1) -> list[IntPoint]:
    """All lattice points of the n-th dilate of p (or of its relative
    interior), sorted; n >= 0, and the 0-th dilate is {0} in both regions,
    as `count_points` counts it.

    region: 'closed' or 'interior' (interior is relative to the affine hull).
    The points y of the n-th dilate's walk, on p's own walk data, map back
    by x = V ((n // period) shift ‖ y); a dilate whose hull misses the
    lattice (period not dividing n) walks nothing. A listing of more than
    MAX_LISTED_POINTS points raises UnsupportedError once the walk has
    counted it, before any point is built.
    """
    check_int(n, "dilate index")
    if n < 0:
        raise InputError("dilate index must be nonnegative")
    check_region(region)
    if n == 0:
        return [(0,) * p.ambient_dim]
    data = _walk_data(p)
    _, mins, _, _, period, basis, shift = data
    runs: list = []
    closed, _ = _count_dilate(data, n, int(region == "interior"), False, runs)
    if closed > MAX_LISTED_POINTS:
        raise UnsupportedError(f"the listing holds {closed:,} lattice points, over the "
                               f"limit of {MAX_LISTED_POINTS:,}")
    fixed = tuple(n // period * y for y in shift)
    points = ([prefix + (value,) for prefix, low, high in runs
               for value in range(low, high + 1)] if mins else [()] * closed)
    return sorted(tuple(linalg.int_dot(row, fixed + y) for row in basis) for y in points)


def _walk_data(p: RationalPolytope):
    """p's inequalities and vertex extremes in free lattice coordinates of
    its affine hull, in walk order, with the period of its fixed coordinates
    and the map back to x.

    With x = V y from `_lattice_basis` of p's equalities, the n-th dilate
    fixes y_i = n Y_i / L for i < k: it misses the lattice unless `period`
    = L / gcd(L, Y) divides n, and at n = m * period the fixed coordinates
    are m times the integers `shift` = Y / gcd(L, Y). Each facet
    <a, x> <= c becomes <(a V)_free, y_free> <= n c - m t, t the fixed part of
    <a V, y> at m = 1, and the free coordinates range over n times the
    extremes of the vertices' images under V_inv. A full-dimensional p has
    V = I and period 1. There x = V (m shift ‖ y) for V's rows with their
    free columns in walk order.

    The walk costs one visit per prefix, so the free coordinates are first
    reduced to p's shape. `linalg.lll` reduces them under the integer
    scatter M = sum_v (N y_v - S)(N y_v - S)^T of the N vertex images y_v,
    S their sum, and gives a unimodular U. With z = U y the facet rows
    become (a V)_free U^-1, the images U y and V's free columns V_free U^-1.
    U is kept only when the box of the images, which are those of the den-th
    dilate and so integers, holds strictly fewer cells than before;
    otherwise the basis stays as `_lattice_basis` gave it. No reduction is
    tried when that box has width 1 along every coordinate: a lattice
    polytope is at least 1 wide along every lattice direction, so no basis
    gives fewer cells. The scatter, the reduction and the guard take 15-50
    us per polytope on average, at most about 0.1 ms.

    Then the coordinate with the longest runs goes last. A line parallel to
    axis j meets p in a segment no longer than width_a(p) / |a_j| for each
    facet normal a with a_j != 0; the free coordinates are sorted by that
    bound, which scales with the dilate and so orders every dilate alike.
    The extremes are integers over the common denominator `den`. The facet
    rows come first, in the order of p's facets, and `_projected_rows`
    follow. Computed once per polytope and kept on it, as its half-space
    form is.
    """
    if p._walk_order is not None:
        return p._walk_order
    hrep = p.facets()
    den = p.vertex_denominator()
    v, v_inv, fixed, fixed_den = _lattice_basis(hrep.equalities, p.ambient_dim)
    k = len(fixed)
    step = gcd(fixed_den, *fixed)
    period = fixed_den // step
    shift = tuple(y // step for y in fixed)
    verts = [tuple(x.numerator * (den // x.denominator) for x in vert) for vert in p.vertices]
    images = [[linalg.int_dot(row, vert) for row in v_inv[k:]] for vert in verts] if k else verts
    mins = [min(column) for column in zip(*images)]
    maxs = [max(column) for column in zip(*images)]
    dual = None  # the columns of U^-1 when U is kept
    if len(mins) > 1 and any(top - bottom > 1 for bottom, top in zip(mins, maxs)):
        dual, mins, maxs = _reduced_basis(images, mins, maxs)

    def turned_free(row):
        """The free part of a row of a V, times U^-1 when U is kept."""
        return [linalg.int_dot(row[k:], col) for col in dual] if dual else row[k:]

    reach = [(top - bottom, 1) for bottom, top in zip(mins, maxs)]  # w / q, compared crosswise
    columns = list(zip(*v))
    rows = []
    incidence = []  # bit j set: vertex j lies on the facet
    for a, c in hrep.inequalities:
        av = [linalg.int_dot(a, col) for col in columns] if k else a
        free = turned_free(av)
        bound = c * den
        dots = [linalg.int_dot(a, vert) for vert in verts]
        width = bound - min(dots)
        for j, coef in enumerate(free):
            if coef and width * reach[j][1] < reach[j][0] * abs(coef):
                reach[j] = width, abs(coef)
        rows.append((free, c, linalg.int_dot(av[:k], shift)))
        incidence.append(sum(1 << j for j, dot in enumerate(dots) if dot == bound))
    order = sorted(range(len(reach)), key=lambda j: Fraction(*reach[j]))

    def pick(row):
        return tuple(row[j] for j in order)

    rows = [(pick(a), c, t) for a, c, t in rows]
    p._walk_order = (rows + _projected_rows(rows, incidence), pick(mins), pick(maxs),
                     den, period, [row[:k] + pick(turned_free(row)) for row in v], shift)
    return p._walk_order


def _reduced_basis(images, mins, maxs):
    """(W, low, high) for the LLL-reduced basis U of the free coordinates
    under the vertex scatter, W the columns of U^-1 and low, high the box of
    the integer vertex images U y; (None, mins, maxs) unless that box holds
    strictly fewer cells than the box mins, maxs of the images y."""
    # N y_v - sum y: the vertex scatter scaled by N^2, in integers
    total = [sum(column) for column in zip(*images)]
    centred = list(zip(*([len(images) * y - s for y, s in zip(image, total)]
                         for image in images)))
    turn, dual = linalg.lll([[linalg.int_dot(a, b) for b in centred] for a in centred])
    if all(sum(map(abs, row)) == 1 for row in turn):
        return None, mins, maxs  # a signed permutation of the axes: the same box
    turned = [[linalg.int_dot(row, image) for row in turn] for image in images]
    low = [min(column) for column in zip(*turned)]
    high = [max(column) for column in zip(*turned)]
    if prod(t - b + 1 for b, t in zip(low, high)) < prod(t - b + 1 for b, t in zip(mins, maxs)):
        return dual, low, high
    return None, mins, maxs


def _projected_rows(rows, incidence) -> list:
    """The rows that project the last walk coordinate out of the facet rows
    `rows` of a `_walk_data` polytope, in their (a, c, t) form; bit j of
    `incidence[i]` is set when vertex j lies on facet i.

    For a facet with a_last = p > 0 and one with a_last = -q < 0, q times the
    first plus p times the second (c and t alike, so at every dilate) holds
    on the polytope and has last coefficient 0; it is divided by the gcd of
    all its entries. Only facets that share at least n - 1 vertices (n free
    coordinates) can meet in a ridge, whose projection may be a facet of the
    shadow; other pairs are skipped, since they would add rows quadratic in
    the facets. Two parallel facets that share a vertex would lie in one
    hyperplane, so no kept pair combines to zero; a repeated row is kept
    once. Interior points satisfy each facet row with c - 1, hence a
    combined row with c - (p + q) / g <= c - 1, so the walk may lower these
    rows by 1 as it lowers the others.
    """
    n = len(rows[0][0]) if rows else 0
    if n < 2:
        return []
    uppers = [(row, on) for row, on in zip(rows, incidence) if row[0][-1] > 0]
    lowers = [(row, on) for row, on in zip(rows, incidence) if row[0][-1] < 0]
    seen = set(rows)
    projected = []
    for (a, c, t), on in uppers:
        p = a[-1]
        for (b, d, s), under in lowers:
            if (on & under).bit_count() < n - 1:
                continue
            q = -b[-1]
            vec = [q * x + p * y for x, y in zip(a, b)]
            c_row, t_row = q * c + p * d, q * t + p * s
            g = gcd(*vec, c_row, t_row)
            row = (tuple(x // g for x in vec), c_row // g, t_row // g)
            if row not in seen:
                seen.add(row)
                projected.append(row)
    return projected


def _count_dilate(data, n: int, slack: int, interior: bool,
                  runs: list | None = None) -> tuple[int, int]:
    """`_walk` counts of the n-th dilate (n >= 1) of the `_walk_data` polytope,
    every inequality lowered by `slack`, its runs appended to `runs` if given;
    (0, 0) if the dilate's affine hull holds no lattice point."""
    inequalities, mins, maxs, den, period, _, _ = data
    if n % period:
        return 0, 0
    m = n // period
    lo = tuple(-((-n * x) // den) for x in mins)
    hi = tuple(n * x // den for x in maxs)
    return _walk([(a, n * c - m * t - slack) for a, c, t in inequalities], lo, hi, interior,
                 runs)


def region_counts(p: RationalPolytope, n: int) -> tuple[int, int]:
    """(closed, interior) lattice-point counts of the n-th dilate, from one walk.

    The interior is relative to the affine hull. The 0-th dilate {0} is its
    own relative interior, so n = 0 gives (1, 1).
    """
    check_int(n, "dilate index")
    if n < 0:
        raise InputError("dilate index must be nonnegative")
    if n == 0:
        return 1, 1
    return _count_dilate(_walk_data(p), n, 0, True)


def count_points(p: RationalPolytope, n: int, region: str = "closed") -> int:
    """Number of lattice points in the n-th dilate (n >= 0).

    The 0-th dilate is {0}, which is its own relative interior, so n = 0
    counts 1 in both regions. (`EhrhartResult.interior_count(0)` is the
    reciprocity value (-1)^dim instead.)
    """
    check_int(n, "dilate index")
    if n < 0:
        raise InputError("dilate index must be nonnegative")
    check_region(region)
    if n == 0:
        return 1
    slack = 1 if region == "interior" else 0
    return _count_dilate(_walk_data(p), n, slack, False)[0]


def prefix_box(p: RationalPolytope, n: int) -> int:
    """The cells of the box, without its last coordinate, that the walk of
    p's n-th dilate (n >= 1) runs its prefixes over: an upper bound on the
    walk's prefixes, which the facet rows and their projections narrow."""
    _, mins, maxs, den, _, _, _ = _walk_data(p)
    return prod(max(0, n * top // den + (-n * bottom) // den + 1)
                for bottom, top in zip(mins[:-1], maxs[:-1]))


class EhrhartResult(FrozenRecord):
    """Counting data of one polytope: quasipolynomials plus h*-numerator."""

    __slots__ = _fields = ("dim", "period", "quasi", "quasi_interior", "hstar")

    def count(self, n: int) -> Fraction:
        return self.quasi.evaluate(n)

    def interior_count(self, n: int) -> Fraction:
        """The interior counting quasipolynomial at n.

        It counts interior lattice points for n >= 1. It is the reciprocity
        quasipolynomial (-1)^dim count(-n), so at n = 0 it gives (-1)^dim,
        not the 1 that `count_points(p, 0, "interior")` counts.
        """
        return self.quasi_interior.evaluate(n)


# `corpus-verify` asks for about 30 distinct polytopes, most of them many
# times; the bound keeps a process that meets many polytopes from keeping
# all of them.
@lru_cache(maxsize=128)
def _ehrhart_cached(p: RationalPolytope) -> EhrhartResult:
    d = p.dim
    per = p.vertex_denominator()
    top = per * (d + 1)  # h* length: the window is the dilates 0..top-1

    closed_counts: list[int] = [1]
    interior_counts: list[int] = [0]  # the interior series is 0, L°(1), L°(2), ...
    for n in range(1, top):
        closed, interior = region_counts(p, n)
        closed_counts.append(closed)
        interior_counts.append(interior)

    hstar = hstar_from_counts(closed_counts, d, per)
    quasi = quasi_from_numerator(hstar.coeffs, d, per)
    # Every nonzero constituent has degree d and leads with the relative
    # volume, which a placing gives. Every closed constituent of a
    # full-dimensional polytope is nonzero; the dilates of an embedded one
    # may miss the lattice, so there a constituent may be zero.
    vol = relative_volume(p)
    closed_parts = quasi.constituents
    if any((c or d == p.ambient_dim) and (c.degree() != d or c.coeffs[-1] != vol)
           for c in closed_parts):
        raise TheoremViolationError(
            f"constituents of {p!r} do not share degree {d} and the common volume {vol}"
        )
    # The interior numerator's coefficient at x^top needs the count at top.
    # The lead of constituent r is the sum of the coefficients at r mod per
    # over d! per^d, so it is the one that makes constituent 0 lead with vol.
    inner = series_numerator(interior_counts, d, per)
    last = vol * factorial(d) * per ** d - sum(inner[::per])
    if last.denominator != 1:
        raise TheoremViolationError(
            f"the interior numerator of {p!r} needs the coefficient {last} at x^{top}"
        )
    quasi_interior = quasi_from_numerator(inner + [last.numerator], d, per)
    # Reciprocity: interior constituent r is (-1)^d times closed constituent
    # -r mod per at -n, coefficient by coefficient.
    for r, c in enumerate(quasi_interior.constituents):
        mirror = closed_parts[-r % per].coeffs
        if c.coeffs != tuple((-1) ** (d + k) * a for k, a in enumerate(mirror)):
            raise TheoremViolationError(
                f"interior constituent {r} of {p!r} does not mirror closed "
                f"constituent {-r % per} under reciprocity"
            )

    if hstar.coefficient(0) != 1 or not hstar.is_integral_nonnegative():
        raise TheoremViolationError(
            f"h* numerator of {p!r} is not a nonnegative integer vector "
            f"with constant term 1: {hstar.coeffs}"
        )
    return EhrhartResult(d, per, quasi, quasi_interior, hstar)


def ehrhart(p: RationalPolytope) -> EhrhartResult:
    """Counting quasipolynomials and h*-data of p (cached per polytope)."""
    return _ehrhart_cached(p)


def reciprocity_check(p: RationalPolytope, max_n: int = 8) -> Report:
    """Verify count(-n) == (-1)^dim interior_count(n) for n = 1..max_n.

    For n up to 5 the interior side is additionally re-counted by the walk
    of `count_points`.
    """
    if max_n < 1:
        raise InputError("reciprocity needs max_n >= 1")
    check_rows(f"reciprocity report for n <= {max_n}", max_n)
    res = ehrhart(p)
    sign = (-1) ** res.dim
    instances = []
    for n in range(1, max_n + 1):
        lhs = res.count(-n)
        rhs = sign * res.interior_count(n)
        ok = lhs == rhs
        inst = {"n": n, "lhs": lhs, "rhs": rhs, "pass": ok}
        if n <= 5:
            direct = count_points(p, n, "interior")
            inst["interior_direct"] = direct
            inst["pass"] = ok and res.interior_count(n) == direct
        instances.append(inst)
    return Report.from_instances("count(-n) == (-1)^dim interior_count(n)", instances,
                                 notes={"polytope": p.name or repr(p), "period": res.period})
