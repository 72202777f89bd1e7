"""h*-vector inequalities, palindromic splits, reflexivity, monotonicity.

The palindromic split's recurrence is compared with `fraction_ab_split`,
the split solved as a rational linear system, on seeded random profiles.
"""

import random
from fractions import Fraction

import pytest

from ehrkit.errors import InputError, TheoremViolationError, UnsupportedError
from ehrkit.polytope import RationalPolytope
from ehrkit.ratpoly import HStarData, Poly
from ehrkit.structure import (
    HStarProfile,
    ab_decomposition,
    athanasiadis_check,
    hibi_check,
    monotonicity_check,
    polytope_profile,
    profile,
    stanley_inequalities,
    stapledon_inequalities,
)

from helpers import fraction_ab_split


def pr(coeffs, d):
    s = len(coeffs) - 1
    return HStarProfile(d, s, d + 1 - s, tuple(coeffs))


def test_profile_degree_and_codegree():
    assert profile(HStarData([1, 1], dim=2)) == pr((1, 1), 2)
    assert profile(HStarData([1, 6, 1], dim=2)) == pr((1, 6, 1), 2)
    assert profile(HStarData([1], dim=3)) == pr((1,), 3)
    assert all(type(c) is int for c in profile(HStarData([1, Fraction(4, 2)], dim=2)).coeffs)
    with pytest.raises(InputError, match="^h\\*-coefficients must be integers$"):
        profile(HStarData([1, Fraction(1, 2)], dim=2))


def test_profile_rejects_rational_period():
    with pytest.raises(UnsupportedError):
        profile(HStarData([1, 1], dim=1, period=2))


def test_profile_invariants():
    with pytest.raises(InputError):
        HStarProfile(2, 1, 2, (2, 1))
    with pytest.raises(InputError):
        HStarProfile(2, 1, 2, (1, -1))
    with pytest.raises(InputError):
        HStarProfile(2, 2, 2, (1, 1))


def test_stanley_partial_sums_square():
    report = stanley_inequalities(pr((1, 1), 2))
    assert report.verdict == "pass"
    assert [(i["lhs"], i["rhs"]) for i in report.instances] == [(1, 1), (2, 2), (2, 2)]


def test_stanley_unimodular_simplex_all_equal():
    report = stanley_inequalities(pr((1,), 3))
    assert report.verdict == "pass"
    assert all(inst["lhs"] == inst["rhs"] for inst in report.instances)


def test_stanley_reeve_and_cross():
    assert stanley_inequalities(pr((1, 0, 2), 3)).verdict == "pass"
    assert stanley_inequalities(pr((1, 2, 1), 2)).verdict == "pass"


def test_stapledon_scaled_square():
    report = stapledon_inequalities(pr((1, 6, 1), 2))
    assert report.verdict == "pass"
    families = [inst["family"] for inst in report.instances]
    assert families == ["A", "trivial"]
    assert report.instances[-1] == {
        "family": "trivial", "index": 0, "lhs": 6, "rhs": 1, "pass": True,
    }


def test_stapledon_birkhoff_profile():
    report = stapledon_inequalities(pr((1, 1, 1), 4))
    assert report.verdict == "pass"
    by_family = {}
    for inst in report.instances:
        by_family.setdefault(inst["family"], []).append(inst)
    assert [(i["lhs"], i["rhs"]) for i in by_family["A"]] == [(0, 0), (1, 0)]
    # codegree 3 window: h*_{-1}+h*_0+h*_1 = 2 against runs of length 3
    assert [(i["lhs"], i["rhs"]) for i in by_family["B"]] == [(2, 3), (2, 2)]


def test_stapledon_unimodular_simplex():
    report = stapledon_inequalities(pr((1,), 3))
    assert report.verdict == "pass"


def test_stapledon_lattice_point_has_no_trivial_instance():
    # d = 0: the point is its own relative interior, so h*_1 = 0 < 1 = h*_0
    # and the bound h*_1 >= h*_d does not apply
    for point in ([()], [(1, 2)]):
        profile_of_point = polytope_profile(RationalPolytope.from_points(point))
        assert profile_of_point == pr((1,), 0)
        report = stapledon_inequalities(profile_of_point)
        assert report.instances == [] and report.verdict == "pass"


def test_ab_decomposition_values():
    cases = [
        ((1, 1), 2, (1, 2, 1), ()),
        ((1, 6, 1), 2, (1, 6, 1), ()),
        ((1, 0, 1), 3, (1, 1, 1, 1), ()),
        ((1, 0, 2), 3, (1, 1, 1, 1), (1, 1)),
        ((1,), 3, (1, 1, 1, 1), ()),
        ((1, 1, 1), 4, (1, 2, 3, 2, 1), ()),
    ]
    for coeffs, d, a_expected, b_expected in cases:
        dec = ab_decomposition(pr(coeffs, d))
        assert dec.a == Poly(a_expected), (coeffs, d)
        assert dec.b == Poly(b_expected), (coeffs, d)


def test_ab_decomposition_rejects_negative_split():
    # forces b = (1, ?, 1) with a_1 = -1 via the palindromy constraints
    with pytest.raises(TheoremViolationError):
        ab_decomposition(pr((1, 0, 0, 2), 3))


def split_outcome(split, profile):
    try:
        dec = split(profile)
    except TheoremViolationError as exc:
        return str(exc)
    return dec


def test_ab_recurrence_matches_the_linear_system_on_random_profiles():
    rng = random.Random(20261019)
    seen = {"split": 0, "b nonzero": 0, "l = 1": 0, "l = d + 1": 0}
    errors = {}
    for _ in range(5000):
        d = rng.randint(0, 7)
        s = rng.randint(0, d)
        top = rng.choice([1, 2, 4, 8])
        profile = pr((1,) + tuple(rng.randint(0, top) for _ in range(s)), d)
        got = split_outcome(ab_decomposition, profile)
        assert got == split_outcome(fraction_ab_split, profile), profile
        if isinstance(got, str):
            errors[got] = errors.get(got, 0) + 1
            continue
        seen["split"] += 1
        seen["b nonzero"] += bool(got.b)
        seen["l = 1"] += got.l == 1
        seen["l = d + 1"] += got.l == d + 1
    assert seen["split"] >= 3000 and seen["b nonzero"] >= 900, seen
    assert seen["l = 1"] >= 300 and seen["l = d + 1"] >= 300, seen
    assert errors.get("b-part has a negative coefficient", 0) >= 1000, errors
    assert errors.get("a-part has a negative coefficient", 0) >= 200, errors
    assert errors.get("a-part chain a_1 <= a_j failed", 0) >= 100, errors


def test_hibi_positive_square():
    square = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    report = hibi_check(square)
    assert report.verdict == "pass"
    inst = report.instances[0]
    assert inst["lhs"] is True and inst["rhs"] is True
    assert report.notes["codegree"] == 2


def test_hibi_positive_unimodular_triangle():
    tri = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1)])
    report = hibi_check(tri)
    assert report.verdict == "pass"
    assert report.instances[0]["lhs"] is True
    assert report.notes["codegree"] == 3


def test_hibi_negative_wide_triangle():
    tri = RationalPolytope.from_points([(0, 0), (3, 0), (0, 1)])
    report = hibi_check(tri)
    assert report.verdict == "pass"
    inst = report.instances[0]
    assert inst["lhs"] is False and inst["rhs"] is False


def test_hibi_negative_long_segment():
    seg = RationalPolytope.from_points([(0,), (3,)])
    report = hibi_check(seg)
    assert report.verdict == "pass"
    assert report.instances[0]["lhs"] is False


def test_hibi_preconditions():
    embedded = RationalPolytope.from_points([(0, 0), (1, 0)])
    with pytest.raises(UnsupportedError):
        hibi_check(embedded)
    half = RationalPolytope.from_points([(0,), ("1/2",)])
    with pytest.raises(UnsupportedError):
        hibi_check(half)


def test_athanasiadis_unit_square():
    square = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    report = athanasiadis_check(square)
    assert report.verdict == "pass"
    assert report.notes["triangulation-unimodular"] is True
    assert report.notes["boundary-unimodular"] is True
    binomials = [i for i in report.instances if i["family"] == "binomial-bound"]
    assert [(i["lhs"], i["rhs"]) for i in binomials] == [(1, 1), (1, 1), (0, 1)]


def test_athanasiadis_reeve_hypothesis_not_met():
    r3 = RationalPolytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
    report = athanasiadis_check(r3)
    assert report.verdict == "hypothesis-not-met"
    assert report.notes["triangulation-unimodular"] is False
    # the boundary simplices are all unimodular, so those families still run
    assert report.notes["boundary-unimodular"] is True
    assert all(inst["pass"] for inst in report.instances)
    assert {inst["family"] for inst in report.instances} == {
        "boundary-chain", "boundary-sums",
    }


def test_athanasiadis_polygons_always_apply():
    for verts in [
        [(0, 0), (3, 0), (0, 1)],
        [(0, 0), (2, 0), (0, 2), (2, 2)],
        [(0, 0), (2, 0), (0, 1)],
    ]:
        report = athanasiadis_check(RationalPolytope.from_points(verts))
        assert report.notes["triangulation-unimodular"] is True
        assert report.verdict == "pass"


def test_monotonicity_nested_squares():
    inner = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    outer = RationalPolytope.from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
    report = monotonicity_check(inner, outer)
    assert report.verdict == "pass"
    assert [(i["lhs"], i["rhs"]) for i in report.instances] == [
        ("1", "1"), ("1", "6"), ("0", "1"),
    ]


def test_monotonicity_reflexive_pair():
    octa = RationalPolytope.from_points(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    report = monotonicity_check(octa, octa)
    assert report.verdict == "pass"
    assert all(i["lhs"] == i["rhs"] for i in report.instances)


def test_monotonicity_rational_pair():
    inner = RationalPolytope.from_points([(0,), ("1/2",)])
    outer = RationalPolytope.from_points([(0,), (1,)])
    report = monotonicity_check(inner, outer)
    assert report.verdict == "pass"
    assert report.notes["period"] == 2
    assert [(i["lhs"], i["rhs"]) for i in report.instances] == [
        ("1", "1"), ("1", "2"), ("0", "1"),
    ]


def test_monotonicity_mixed_dimension():
    inner = RationalPolytope.from_points([(0, 0), (1, 0)])
    outer = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    report = monotonicity_check(inner, outer)
    assert report.verdict == "pass"
    assert report.notes["dimension"] == 2


def test_monotonicity_requires_containment():
    inner = RationalPolytope.from_points([(0,), (2,)])
    outer = RationalPolytope.from_points([(0,), (1,)])
    with pytest.raises(InputError):
        monotonicity_check(inner, outer)


def test_polytope_profile_roundtrip():
    r2 = RationalPolytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert polytope_profile(r2) == pr((1, 0, 1), 3)
