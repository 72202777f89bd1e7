"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Budgets follow the stated limits; everything is exact arithmetic.
"""

import time
from fractions import Fraction
from math import comb

from ehrkit.cli import main
from ehrkit.cones import partition_check, specialization_check, stanley_reciprocity_check
from ehrkit.corpus import (
    corpus_dir,
    list_cones,
    list_polytopes,
    load_cone,
    load_polytope,
    random_lattice_polytopes,
)
from ehrkit.enumeration import count_points, ehrhart, reciprocity_check
from ehrkit.ratpoly import Poly
from ehrkit.semimagic import adg_report, birkhoff_polytope, count_semimagic
from ehrkit.structure import (
    ab_decomposition,
    hibi_check,
    polytope_profile,
    reflexive_check,
    stanley_inequalities,
    stapledon_inequalities,
)
from ehrkit.triangulation import betke_mcmullen, h_polynomial, placing_triangulation

RANDOM_SEED = 20240817

UNIMODULAR_SIMPLEX_NAMES = ("segment_01", "triangle_std", "simplex_3d", "simplex_4d")


def verdict(number: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def lattice_corpus():
    members = [load_polytope(name) for name in list_polytopes()]
    return [p for p in members if p.is_lattice]


def test_acceptance_01_macmahon_exactness():
    def body():
        start = time.monotonic()
        for r in range(21):
            assert count_semimagic(3, r) == comb(r + 5, 5) - comb(r + 2, 5), r
        assert time.monotonic() - start < 1.0

    verdict(1, "MacMahon exactness", body)


def test_acceptance_02_semimagic_structure():
    def body():
        start = time.monotonic()
        for n in (2, 3, 4):
            table, report = adg_report(n, rmax=12)
            assert report.verdict == "pass", (n, report.instances)
            numerator = table.numerator
            degree = n * n - 3 * n + 2
            assert numerator.degree() == degree, n
            assert numerator.is_palindromic(degree), n
            assert numerator.is_nonnegative(), n
            assert all(c.denominator == 1 for c in numerator.coeffs), n
            assert report.notes["denominator_exponent"] == n * n - 2 * n + 2, n
            for k in range(1, n):
                assert table.count_poly.evaluate(-k) == 0, (n, k)
            sign = (-1) ** (n - 1)
            for r in range(1, 13):
                lhs = table.count_poly.evaluate(-r)
                rhs = sign * table.count_poly.evaluate(r - n)
                assert lhs == rhs, (n, r)
        assert time.monotonic() - start < 30.0

    verdict(2, "semimagic count structure", body)


def test_acceptance_03_reciprocity_corpus_and_random():
    def body():
        start = time.monotonic()
        names = list_polytopes()
        assert len(names) >= 12
        members = [load_polytope(name) for name in names]
        dims = {p.dim for p in members}
        assert {1, 2, 3, 4} <= dims
        assert any(p.vertex_denominator() > 1 for p in members)
        assert {"reeve_2", "reeve_3", "half_segment"} <= set(names)
        sweep = members + random_lattice_polytopes(20, seed=RANDOM_SEED)
        for p in sweep:
            report = reciprocity_check(p, max_n=5)
            assert report.verdict == "pass", p.name
            # the interior side must be anchored by direct enumeration
            assert any("interior_direct" in inst for inst in report.instances), p.name
        assert time.monotonic() - start < 60.0

    verdict(3, "lattice-count reciprocity", body)


def test_acceptance_04_cone_reciprocity():
    def body():
        names = list_cones()
        assert len(names) >= 6
        for name in names:
            cone = load_cone(name)
            report = stanley_reciprocity_check(cone, trials=10, seed=RANDOM_SEED)
            assert report.verdict == "pass", name
            assert len(report.instances) == 10, name

    verdict(4, "cone reciprocity", body)


def test_acceptance_05_decomposition_equivalence():
    def body():
        for p in lattice_corpus():
            expected = ehrhart(p).hstar.poly()
            for flavor in (False, True):
                dec = betke_mcmullen(p, use_all_lattice_points=flavor)
                assert dec.hstar.poly() == expected, (p.name, flavor)
                t = dec.triangulation
                h_t = h_polynomial(t.f_vector(), t.dim)
                top = max(expected.degree(), h_t.degree())
                for i in range(top + 1):
                    assert expected[i] >= h_t[i], (p.name, flavor, i)
                if t.is_unimodular():
                    assert expected == h_t, (p.name, flavor)

    verdict(5, "triangulation decomposition of h*", body)


def test_acceptance_06_specialization_identity():
    def body():
        points = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
        for p in lattice_corpus():
            for x0 in points:
                report = specialization_check(p, x0)
                assert report.verdict == "pass", (p.name, x0)

    verdict(6, "series specialization", body)


def test_acceptance_07_inequality_suites():
    def body():
        for p in lattice_corpus():
            pr = polytope_profile(p)
            assert stanley_inequalities(pr).verdict == "pass", p.name
            assert stapledon_inequalities(pr).verdict == "pass", p.name
        for name in UNIMODULAR_SIMPLEX_NAMES:
            pr = polytope_profile(load_polytope(name))
            for report in (stanley_inequalities(pr), stapledon_inequalities(pr)):
                for inst in report.instances:
                    assert inst["lhs"] == inst["rhs"], (name, inst)

    verdict(7, "coefficient inequality families", body)


def test_acceptance_08_palindromic_split():
    def body():
        for p in lattice_corpus():
            pr = polytope_profile(p)
            dec = ab_decomposition(pr)  # raises if not unique/nonnegative
            assert dec.a[0] == 1, p.name
            if p.dim == p.ambient_dim:
                reflexive, _ = reflexive_check(p.dilate(pr.l))
                assert (not dec.b) == reflexive, (p.name, dec.b.coeffs)

    verdict(8, "palindromic a/b split", body)


def test_acceptance_09_palindromy_reflexivity():
    def body():
        outcomes = []
        for p in lattice_corpus():
            if p.dim != p.ambient_dim:
                continue
            report = hibi_check(p)
            assert report.verdict == "pass", p.name
            outcomes.append(report.instances[0]["lhs"])
        assert outcomes.count(True) >= 3
        assert outcomes.count(False) >= 3

    verdict(9, "palindromy-reflexivity biconditional", body)


def test_acceptance_10_doubly_stochastic_bridge():
    def body():
        b3 = birkhoff_polytope(3)
        for r in range(3):
            assert count_points(b3, r) == count_semimagic(3, r), r
        for r in range(3, 7):
            interior = count_points(b3, r, region="interior")
            assert interior == count_semimagic(3, r - 3), r
        table, _ = adg_report(3)
        volume = placing_triangulation(b3).normalized_volume()
        assert table.numerator.evaluate(1) == 3
        assert volume == 3

    verdict(10, "doubly-stochastic bridge", body)


def test_acceptance_11_half_open_partition():
    def body():
        for name in list_cones():
            report = partition_check(load_cone(name), bound=4)
            assert report.verdict == "pass", name

    verdict(11, "half-open partition", body)


def test_acceptance_12_deterministic_reports(tmp_path):
    def body():
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for target in (first, second):
            code = main(["corpus-verify", "--seed", "7", "--out", str(target)])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert b'"verdict": "pass"' in first.read_bytes()

    verdict(12, "deterministic reports", body)
