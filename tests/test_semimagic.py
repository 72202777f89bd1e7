"""Equal-line-sum matrix counts, their structure, and the geometric bridge.

Count oracle: `row_dp_count`, a dynamic program over residual column sums
that places one row at a time, checked against the two-row-halves count.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb

import pytest

from ehrkit import cli, semimagic
from ehrkit.enumeration import count_points, ehrhart
from ehrkit.errors import InputError, UnsupportedError
from ehrkit.ratpoly import Poly
from ehrkit.report import MAX_REPORT_ROWS
from ehrkit.semimagic import (
    _WEIGHTS, MAX_TUPLES, _two_rows, adg_report, birkhoff_polytope,
    count_semimagic,
)
from ehrkit.triangulation import betke_mcmullen


@lru_cache(maxsize=None)
def compositions(total, parts):
    """All weak compositions of `total` into `parts` nonnegative parts."""
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in compositions(total - first, parts - 1))


def row_dp_count(n, r):
    """Oracle: each of the first n - 1 rows takes a weak composition of r that
    fits under the residual column sums; the last row is forced. A state is
    the sorted residual vector, since the count only depends on its multiset."""
    states = {(r,) * n: 1}
    for _ in range(n - 1):
        nxt = {}
        for state, ways in states.items():
            for row in compositions(r, n):
                if all(part <= left for part, left in zip(row, state)):
                    key = tuple(sorted((left - part for part, left in zip(row, state)),
                                       reverse=True))
                    nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(states.values())


def test_count_matches_row_dp_oracle():
    for n in range(1, 5):
        for r in range(21):
            assert count_semimagic(n, r) == row_dp_count(n, r), (n, r)


def test_count_known_values_of_size_four():
    assert [count_semimagic(4, r) for r in (2, 4, 6)] == [282, 10147, 132724]


def test_count_small_tables():
    assert [count_semimagic(3, r) for r in range(6)] == [1, 6, 21, 55, 120, 231]
    assert [count_semimagic(2, r) for r in range(5)] == [1, 2, 3, 4, 5]
    assert [count_semimagic(1, r) for r in range(4)] == [1, 1, 1, 1]
    assert [count_semimagic(4, r) for r in range(4)] == [1, 24, 282, 2008]


def test_count_matches_closed_form():
    # the classical size-3 formula as binomial coefficients
    for r in range(21):
        assert count_semimagic(3, r) == comb(r + 5, 5) - comb(r + 2, 5)


def test_count_cache_is_bounded_and_recomputes_evicted_counts():
    maxsize = count_semimagic.cache_info().maxsize
    assert maxsize is not None
    first = [count_semimagic(3, r) for r in range(8)]
    for r in range(maxsize):
        count_semimagic(1, r)
    misses = count_semimagic.cache_info().misses
    assert [count_semimagic(3, r) for r in range(8)] == first == [row_dp_count(3, r)
                                                                  for r in range(8)]
    assert count_semimagic.cache_info().misses == misses + 8
    assert count_semimagic.cache_info().currsize == maxsize


def test_count_preconditions():
    with pytest.raises(UnsupportedError):
        count_semimagic(5, 1)
    with pytest.raises(UnsupportedError):
        count_semimagic(0, 1)
    with pytest.raises(InputError):
        count_semimagic(3, -1)


@pytest.mark.parametrize("call, args", [
    (count_semimagic, (4, 2.0)),
    (count_semimagic, (4, True)),
    (count_semimagic, (True, 2)),
    (adg_report, (4, 12.5)),
    (adg_report, (4.0,)),
    (birkhoff_polytope, (2.0,)),
], ids=["float line sum", "bool line sum", "bool size", "float rmax", "float size",
        "float birkhoff size"])
def test_non_int_arguments_are_input_errors_whatever_the_cache_holds(call, args):
    # the int entries these arguments equal are cached first
    assert (count_semimagic(4, 2), count_semimagic(4, 1), count_semimagic(1, 2)) == (282, 24, 1)
    for _ in range(2):
        with pytest.raises(InputError, match="must be an int"):
            call(*args)


def test_counts_out_of_reach_fail_fast_with_the_estimate():
    start = time.monotonic()
    for call, args, what in [(count_semimagic, (4, 400), "H_4(400)"),
                             (count_semimagic, (3, 10**6), "H_3(1000000)"),
                             (adg_report, (4, 400), "H_4(r) for r <= 400"),
                             (adg_report, (3, 10**9), "H_3(r) for r <= 1000000000")]:
        with pytest.raises(UnsupportedError) as info:
            call(*args)
        message = str(info.value)
        assert message.startswith(f"{what} visits about ") and message.endswith(
            f" column-sum tuples, over the limit of {MAX_TUPLES:,}"), message
    assert time.monotonic() - start < 1.0
    # the default tables and rmax 14 stay far inside the limit; size 2 has
    # one column-sum tuple per line sum, and its counts are never refused
    assert adg_report(4, rmax=14)[1].verdict == "pass"
    assert count_semimagic(2, 10**6) == 10**6 + 1


def test_reports_out_of_reach_fail_fast_with_their_row_count():
    # at n <= 2 a count is one term and the report's rows are the cost: the
    # row count is exact, and a report just under the limit holds that many
    start = time.monotonic()
    for n, rmax, rows in ((2, 10**6, 2_000_003), (1, 10**6, 2_000_003), (2, 4999, 10_001)):
        with pytest.raises(UnsupportedError) as info:
            adg_report(n, rmax)
        assert str(info.value) == (f"the H_{n}(r) report for r <= {rmax} holds {rows:,} "
                                   f"rows, over the limit of {MAX_REPORT_ROWS:,}")
    assert time.monotonic() - start < 1.0
    table, report = adg_report(2, 4998)
    assert len(report.instances) == 9_999 <= MAX_REPORT_ROWS
    assert report.verdict == "pass" and table.values[-1] == 4999
    for n, rmax in ((1, 7), (2, 9), (3, 12), (4, 14)):
        assert len(adg_report(n, rmax)[1].instances) == 2 * rmax - (n - 1) ** 2 + n + 2


def random_column_sums(rng, r):
    """A nonincreasing c in [0, r]^4 with sum 2r, the column sums of a
    two-row half; often with zeros, repeated parts or parts equal to r."""
    while True:
        c = [rng.choice((0, r, rng.randint(0, r), rng.randint(0, r))) for _ in range(3)]
        last = 2 * r - sum(c)
        if 0 <= last <= r:
            return tuple(sorted(c + [last], reverse=True))


def test_two_row_half_matches_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        r = rng.randint(0, 9)
        c = random_column_sums(rng, r)
        binom = [comb(m + 3, 3) for m in range(r + 1)]
        brute = sum(1 for x in product(*(range(v + 1) for v in c)) if sum(x) == r)
        assert _two_rows(*c, r, binom) == brute, (c, r)


def test_rearrangement_weights_match_permutations():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.choice((3, 4))
        c = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
        padded = c + [0] * (4 - n)
        ties = sum(1 << j for j in range(3) if padded[j] == padded[j + 1])
        assert _WEIGHTS[n][ties] == len(set(permutations(c))), c


def test_report_size_three():
    table, report = adg_report(3)
    assert report.verdict == "pass"
    assert table.values[:6] == (1, 6, 21, 55, 120, 231)
    assert table.numerator == Poly([1, 1, 1])
    assert table.count_poly.degree() == 4
    assert table.count_poly.evaluate(-1) == 0
    assert table.count_poly.evaluate(-2) == 0
    assert report.notes["denominator_exponent"] == 5


def test_report_size_two():
    table, report = adg_report(2, rmax=12)
    assert report.verdict == "pass"
    assert table.numerator == Poly([1])
    assert table.count_poly == Poly([1, 1])
    assert report.notes["denominator_exponent"] == 2


def test_report_size_one():
    table, report = adg_report(1)
    assert report.verdict == "pass"
    assert table.count_poly == Poly([1])
    assert table.numerator == Poly([1])


def test_report_size_four_structure():
    table, report = adg_report(4, rmax=12)
    assert report.verdict == "pass"
    assert table.count_poly.degree() == 9
    numerator = table.numerator
    assert numerator.degree() == 6
    assert numerator.is_palindromic(6)
    assert numerator.is_nonnegative()
    assert numerator[0] == 1
    # reflection tested through the report; spot-check one instance directly
    sign = (-1) ** 3
    assert table.count_poly.evaluate(-5) == sign * table.count_poly.evaluate(1)


@pytest.mark.parametrize("n, planted", [(3, 9), (4, 12), (2, 3)])
def test_report_fails_a_planted_count_at_its_row(monkeypatch, n, planted):
    # a wrong count past the numerator's window fails its polynomiality row,
    # and only that row; the rows read off the window still pass
    counted = semimagic.count_semimagic

    def one_off(size, r):
        return counted(size, r) + (r == planted)

    monkeypatch.setattr(semimagic, "count_semimagic", one_off)
    _, report = adg_report(n, rmax=planted + 2)
    assert report.verdict == "fail"
    assert [(i["property"], i["index"]) for i in report.instances if not i["pass"]] == [
        ("polynomiality", planted)]
    assert cli.main(["semimagic", "--n", str(n), "--rmax", str(planted + 2)]) == 1


def test_report_rmax_guard():
    with pytest.raises(InputError):
        adg_report(3, rmax=5)


def test_birkhoff_vertices_and_dimension():
    b3 = birkhoff_polytope(3)
    assert b3.ambient_dim == 9
    assert len(b3.vertices) == 6
    assert b3.dim == 4
    b2 = birkhoff_polytope(2)
    assert len(b2.vertices) == 2
    assert b2.dim == 1
    b4 = birkhoff_polytope(4)
    assert (b4.ambient_dim, len(b4.vertices), b4.dim) == (16, 24, 9)
    for n in (0, 5):
        with pytest.raises(UnsupportedError, match=str(n)):
            birkhoff_polytope(n)


def test_birkhoff_counts_match_dp():
    b2 = birkhoff_polytope(2)
    for r in range(5):
        assert count_points(b2, r) == count_semimagic(2, r)
    b3 = birkhoff_polytope(3)
    for r in range(3):
        assert count_points(b3, r) == count_semimagic(3, r)


def test_birkhoff_series_numerator_from_geometry():
    result = ehrhart(birkhoff_polytope(3))
    assert result.hstar.coeffs == (Fraction(1), Fraction(1), Fraction(1))
    table, _ = adg_report(3)
    assert result.hstar.poly() == table.numerator


def test_birkhoff_4_counts_match_dp():
    # every coordinate of B4 lies in a line-sum equality; the walk runs over
    # the 9 free lattice coordinates of its affine hull
    b4 = birkhoff_polytope(4)
    assert [count_points(b4, r) for r in range(7)] == [count_semimagic(4, r)
                                                      for r in range(7)]


def test_birkhoff_4_ehrhart_within_budget():
    # dilates 1..9 of B4, closed and interior (2,309,384 points at dilate 9
    # alone), take about 2 s on a 2-vCPU VM; the budget leaves room for a
    # loaded machine. The assembly by faces then checks itself against it.
    b4 = birkhoff_polytope(4)
    start = time.monotonic()
    result = ehrhart(b4)
    elapsed = time.monotonic() - start
    table, _ = adg_report(4)
    assert result.hstar.poly() == table.numerator
    assert result.hstar.coeffs == (1, 14, 87, 148, 87, 14, 1)
    assert betke_mcmullen(b4, verify=True).hstar.coeffs == result.hstar.coeffs
    assert [result.interior_count(n) for n in range(5, 11)] == [
        count_semimagic(4, n - 4) for n in range(5, 11)]
    assert elapsed < 30.0, elapsed
