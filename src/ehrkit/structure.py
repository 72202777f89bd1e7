"""Coefficient structure of h*-vectors: inequalities and decompositions.

Everything here consumes either an h*-profile (dimension, degree, codegree,
zero-extended coefficients) or a polytope when the statement involves the
geometry itself (reflexivity of a dilate, triangulations of the boundary,
containment). Checks return Reports; decompositions return data and raise
TheoremViolationError when an identity that must hold does not.

A profile holds the h*-coefficients as plain ints, and every statement on
it is decided in integers: the palindromic split of Stapledon
("Inequalities and Ehrhart delta-vectors", Trans. AMS 361, 2009) is read
off a recurrence on the codegree product, not solved as a linear system.
"""

from __future__ import annotations

from math import lcm

from .enumeration import ehrhart, enumerate_points
from .errors import (FrozenRecord, InputError, TheoremViolationError, UnsupportedError,
                     _set_field)
from .placing import boundary_facets
from .polytope import RationalPolytope, contains_polytope
from .ratpoly import HStarData, Poly, choose, hstar_from_counts
from .report import HYPOTHESIS_NOT_MET, Report
from .triangulation import placing_triangulation


class HStarProfile(FrozenRecord):
    """Dimension, degree, codegree, and zero-extended h*-coefficients."""

    __slots__ = _fields = ("d", "s", "l", "coeffs")

    def __init__(self, d: int, s: int, l: int, coeffs: tuple[int, ...]):
        if not coeffs or coeffs[0] != 1:
            raise InputError("h*-vector must start with 1")
        if any(c < 0 for c in coeffs):
            raise InputError("h*-coefficients must be nonnegative")
        if s != len(coeffs) - 1 or l != d + 1 - s:
            raise InputError("inconsistent degree/codegree data")
        if not 1 <= l <= d + 1:
            raise InputError("codegree out of range")
        _set_field(self, "d", d)
        _set_field(self, "s", s)
        _set_field(self, "l", l)
        _set_field(self, "coeffs", coeffs)

    def h(self, j: int) -> int:
        """Coefficient h*_j, reading 0 outside the stored range."""
        if 0 <= j <= self.s:
            return self.coeffs[j]
        return 0

    def h_sum(self, lo: int, hi: int) -> int:
        """Sum of h*_j over lo <= j <= hi (empty when lo > hi)."""
        return sum(self.h(j) for j in range(lo, hi + 1))


def profile(h: HStarData) -> HStarProfile:
    """Profile of an integral h*; rational periods are not supported here."""
    if h.period != 1:
        raise UnsupportedError("profile-based statements need period 1")
    # HStarData stores ints where integral, so any other entry is a Fraction
    if any(type(c) is not int for c in h.coeffs):
        raise InputError("h*-coefficients must be integers")
    s = len(h.coeffs) - 1
    return HStarProfile(h.dim, s, h.dim + 1 - s, h.coeffs)


def polytope_profile(p: RationalPolytope) -> HStarProfile:
    return profile(ehrhart(p).hstar)


def stanley_inequalities(pr: HStarProfile) -> Report:
    """Bottom partial sums never exceed the matching top partial sums.

    h*_0 + ... + h*_j <= h*_s + ... + h*_{s-j} for 0 <= j <= d.
    """
    instances = []
    for j in range(pr.d + 1):
        lhs = pr.h_sum(0, j)
        rhs = pr.h_sum(pr.s - j, pr.s)
        instances.append({"index": j, "lhs": lhs, "rhs": rhs, "pass": lhs <= rhs})
    return Report.from_instances("stanley-partial-sums", instances)


def stapledon_inequalities(pr: HStarProfile) -> Report:
    """Codegree-indexed comparisons between low and high coefficient runs.

    The trivial instance h*_1 >= h*_d needs d >= 1: a lattice point is its
    own relative interior, so there h*_1 = 0 < 1 = h*_0.
    """
    instances = []
    for j in range(pr.d // 2):
        lhs = pr.h_sum(2, j + 1)
        rhs = pr.h_sum(pr.d - j, pr.d - 1)
        instances.append({
            "family": "A", "index": j, "lhs": lhs, "rhs": rhs, "pass": lhs >= rhs,
        })
    low = pr.h_sum(2 - pr.l, 1)
    for j in range(2, pr.d):
        rhs = pr.h_sum(j - pr.l + 1, j)
        instances.append({
            "family": "B", "index": j, "lhs": low, "rhs": rhs, "pass": low <= rhs,
        })
    if pr.d >= 1:
        instances.append({
            "family": "trivial", "index": 0, "lhs": pr.h(1), "rhs": pr.h(pr.d),
            "pass": pr.h(1) >= pr.h(pr.d),
        })
    return Report.from_instances("stapledon-coefficient-runs", instances)


class ABDecomposition(FrozenRecord):
    """Split of (1 + x + ... + x^(l-1)) h*(x) into palindromic halves."""

    __slots__ = _fields = ("a", "b", "l", "d")

    def __init__(self, a: Poly, b: Poly, l: int, d: int):
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "l", l)
        _set_field(self, "d", d)


def ab_decomposition(pr: HStarProfile) -> ABDecomposition:
    """Unique palindromic split a(x) + x^l b(x) of the codegree product.

    a is palindromic of degree d, b is palindromic about degree d-l (zero
    when l = d+1). With c = (1 + x + ... + x^(l-1)) h*, the coefficients of
    any split satisfy c_i = a_i + b_(i-l), and palindromy turns
    c_(d-i) = a_(d-i) + b_(d-l-i) into c_(d-i) = a_i + b_i. So every split
    satisfies b_i = c_(d-i) - c_i + b_(i-l) and a_i = c_i - b_(i-l), with
    b_j = 0 for j < 0: the split is unique, and this recurrence, run in
    integers, is the only candidate. That it is a split (reconstruction and
    palindromy), nonnegativity, a_0 = 1, and the low-coefficient chain
    a_1 <= a_j are all asserted.
    """
    d, l = pr.d, pr.l
    c = [pr.h_sum(i - l + 1, i) for i in range(d + 1)]
    bs: list[int] = []
    for i in range(d - l + 1):
        bs.append(c[d - i] - c[i] + (bs[i - l] if i >= l else 0))
    a = Poly([c[i] - (bs[i - l] if i >= l else 0) for i in range(d + 1)])
    b = Poly(bs)
    if Poly(c) != a + b.shift(l):
        raise TheoremViolationError("palindromic split failed to reconstruct")
    if not (a.is_palindromic(d) and b.is_palindromic(d - l)):
        raise TheoremViolationError("palindromic split has no solution")
    for name, poly_part in (("a", a), ("b", b)):
        if not poly_part.is_nonnegative():
            raise TheoremViolationError(f"{name}-part has a negative coefficient")
    if a[0] != 1:
        raise TheoremViolationError("a-part must start with 1")
    for j in range(2, d):
        if not a[1] <= a[j]:
            raise TheoremViolationError("a-part chain a_1 <= a_j failed")
    return ABDecomposition(a, b, l, d)


def ab_report(pr: HStarProfile) -> Report:
    """Report wrapper around the palindromic split."""
    try:
        dec = ab_decomposition(pr)
    except TheoremViolationError as exc:
        return Report("palindromic-split", [
            {"index": 0, "lhs": str(exc), "rhs": None, "pass": False},
        ], "fail")
    instances = [
        {"index": "identity", "lhs": dec.a.to_strings(), "rhs": dec.b.to_strings(),
         "pass": True},
        {"index": "b-zero", "lhs": not dec.b, "rhs": None, "pass": True},
    ]
    return Report.from_instances("palindromic-split", instances,
                                 notes={"l": dec.l, "d": dec.d})


def reflexive_check(p: RationalPolytope) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether some lattice translate of p is reflexive.

    Requires a full-dimensional lattice polytope. A translate q = p - z is
    reflexive iff 0 is its unique interior lattice point and every facet of
    q, written with jointly primitive integer data (a, c), has offset c = 1
    (equivalently the facet normal scaled to offset 1 stays integral).
    Returns (True, z) with the witness translation, or (False, None).
    """
    if not p.is_lattice:
        raise UnsupportedError("reflexive_check needs a lattice polytope")
    if p.dim != p.ambient_dim:
        raise UnsupportedError("reflexive_check needs a full-dimensional polytope")
    interior = enumerate_points(p, "interior")
    if len(interior) != 1:
        return False, None
    z = interior[0]
    shifted = p.translate([-v for v in z])
    if all(c == 1 for _, c in shifted.facets().inequalities):
        return True, z
    return False, None


def hibi_check(p: RationalPolytope) -> Report:
    """Palindromic h* exactly when the codegree dilate translates to reflexive."""
    if not p.is_lattice:
        raise UnsupportedError("palindromy-reflexivity check needs a lattice polytope")
    if p.dim != p.ambient_dim:
        raise UnsupportedError("palindromy-reflexivity check needs full dimension")
    pr = polytope_profile(p)
    hstar_poly = Poly(pr.coeffs)
    palindromic = hstar_poly.is_palindromic(pr.s)
    reflexive, witness = reflexive_check(p.dilate(pr.l))
    instances = [{
        "index": "biconditional",
        "lhs": palindromic,
        "rhs": reflexive,
        "pass": palindromic == reflexive,
    }]
    notes = {"codegree": pr.l}
    if witness is not None:
        notes["witness"] = [str(v) for v in witness]
    return Report.from_instances("palindromy-reflexivity", instances, notes)


def athanasiadis_check(p: RationalPolytope) -> Report:
    """Inequalities conditional on unimodular (boundary) triangulations.

    Builds the placing triangulation on all lattice points. If it is
    unimodular, checks the decreasing top chain and the binomial bound;
    if the induced boundary triangulation is unimodular, checks the two
    boundary families. With neither hypothesis met the verdict is
    hypothesis-not-met; the main hypothesis drives the verdict and
    boundary results are reported alongside.
    """
    if not p.is_lattice:
        raise UnsupportedError("triangulation inequalities need a lattice polytope")
    pr = polytope_profile(p)
    t = placing_triangulation(p, use_all_lattice_points=True)
    main_unimodular = t.is_unimodular()
    d = pr.d
    instances = []
    if main_unimodular:
        for i in range((d + 1) // 2, d):
            instances.append({
                "family": "top-chain", "index": i, "lhs": pr.h(i),
                "rhs": pr.h(i + 1), "pass": pr.h(i) >= pr.h(i + 1),
            })
        for j in range(d + 1):
            bound = int(choose(pr.h(1) + j - 1, j))
            instances.append({
                "family": "binomial-bound", "index": j, "lhs": pr.h(j),
                "rhs": bound, "pass": pr.h(j) <= bound,
            })
    boundary_unimodular = False
    if d >= 1:
        boundary_unimodular = all(t.cell_volume(f) == 1
                                  for f, _ in boundary_facets(t.cells))
    if boundary_unimodular:
        for j in range(d // 2):
            instances.append({
                "family": "boundary-chain", "index": j, "lhs": pr.h(j + 1),
                "rhs": pr.h(d - j), "pass": pr.h(j + 1) >= pr.h(d - j),
            })
            lhs = pr.h_sum(0, j + 1)
            rhs = pr.h_sum(d - j, d) + int(choose(pr.h(1) - pr.h(d) + j + 1, j + 1))
            instances.append({
                "family": "boundary-sums", "index": j, "lhs": lhs, "rhs": rhs,
                "pass": lhs <= rhs,
            })
    notes = {
        "triangulation-unimodular": main_unimodular,
        "boundary-unimodular": boundary_unimodular,
        "cells": len(t.cells),
    }
    if not main_unimodular:
        verdict = HYPOTHESIS_NOT_MET
        if any(not inst["pass"] for inst in instances):
            return Report("unimodular-triangulation-bounds", instances, "fail", notes)
        return Report("unimodular-triangulation-bounds", instances, verdict, notes)
    report = Report.from_instances("unimodular-triangulation-bounds", instances, notes)
    return report


def monotonicity_check(inner: RationalPolytope, outer: RationalPolytope) -> Report:
    """Containment forces a componentwise h*-inequality in a common form.

    Both numerators are recomputed over (1 - x^p)^(d+1) with p the lcm of
    the two periods and d the dimension of the outer polytope. The counts
    over that window come from the cached, count-checked quasipolynomials.
    """
    if not contains_polytope(inner, outer):
        raise InputError("inner polytope is not contained in the outer one")
    p = lcm(inner.vertex_denominator(), outer.vertex_denominator())
    d = outer.dim
    window = p * (d + 2)
    inner_counts, outer_counts = ehrhart(inner), ehrhart(outer)
    counts_inner = [inner_counts.count(n) for n in range(window)]
    counts_outer = [outer_counts.count(n) for n in range(window)]
    h_inner = hstar_from_counts(counts_inner, d, period=p)
    h_outer = hstar_from_counts(counts_outer, d, period=p)
    top = max(len(h_inner.coeffs), len(h_outer.coeffs))
    instances = []
    for i in range(top):
        lhs = h_inner.coefficient(i)
        rhs = h_outer.coefficient(i)
        instances.append({
            "index": i, "lhs": str(lhs), "rhs": str(rhs), "pass": lhs <= rhs,
        })
    notes = {"period": p, "dimension": d}
    return Report.from_instances("containment-monotonicity", instances, notes)
