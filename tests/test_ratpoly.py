"""Polynomial, quasipolynomial, and h*-transform unit tests.

Expected values are frozen from independent oracles: closed-form counts of
simple boxes and crosses, hand-rolled series convolutions, and binomial
identities evaluated with math.comb. Nothing here reuses the code under
test to generate its own expectations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from ehrkit.errors import InputError, TheoremViolationError
from ehrkit.ratpoly import (
    HStarData,
    Poly,
    QuasiPoly,
    choose,
    counts_from_hstar,
    hstar_from_counts,
    interpolate,
    quasi_from_numerator,
    series_numerator,
)

from helpers import minimal_period, negate_argument


def convolve_with_denominator(counts, period, power):
    # independent transform oracle: multiply sum counts[n] x^n by (1-x^p)^e
    denom = [1]
    step = [1] + [0] * (period - 1) + [-1]
    for _ in range(power):
        out = [0] * (len(denom) + len(step) - 1)
        for i, a in enumerate(denom):
            for j, b in enumerate(step):
                out[i + j] += a * b
        denom = out
    prod = [Fraction(0)] * (len(counts) + len(denom) - 1)
    for i, a in enumerate(counts):
        for j, b in enumerate(denom):
            prod[i + j] += Fraction(a) * b
    return prod


def test_poly_basic_arithmetic():
    p = Poly([1, 2, 1])
    q = Poly([0, 1])
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(2), Fraction(1))
    assert (p - p).degree() == -1
    assert not Poly([0, 0])
    assert Poly([1, 0, 0]).coeffs == (Fraction(1),)
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)


def test_evaluate_at_integers_matches_fraction_horner():
    # integer arguments take Horner on the numerators over the common
    # denominator; the oracle runs Horner in Fraction
    rng = random.Random(20261022)
    for _ in range(300):
        p = Poly([Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                  for _ in range(rng.randint(0, 10))])
        for x in (rng.randint(-30, 30), Fraction(rng.randint(-30, 30)), str(rng.randint(-9, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(2, 5))):
            expected = Fraction(0)
            for c in reversed(p.coeffs):
                expected = expected * Fraction(x) + c
            value = p.evaluate(x)
            assert value == expected and type(value) is Fraction, (p, x)
    with pytest.raises(InputError):
        Poly([1, 2]).evaluate(0.5)


def test_poly_rejects_floats():
    with pytest.raises(InputError):
        Poly([0.5])


def test_poly_pretty_printer():
    assert Poly([1, 2, 1]).pretty("n") == "n^2+2n+1"
    assert Poly([0]).pretty() == "0"
    assert Poly([Fraction(-1, 2), 0, 1]).pretty() == "x^2-1/2"
    assert Poly([0, 1]).pretty("t") == "t"


def test_poly_palindrome_windows():
    assert Poly([1, 0, 1]).is_palindromic(2)
    assert Poly([1, 1]).is_palindromic(1)
    assert not Poly([1, 2]).is_palindromic(1)
    # window larger than the degree compares against implicit zeros
    assert not Poly([1, 1]).is_palindromic(2)
    assert Poly([]).is_palindromic(3)


def test_interpolate_square_counts():
    # samples are (n+1)^2, the lattice-point count of the n-fold unit square
    p = interpolate([(0, 1), (1, 4), (2, 9)])
    assert p.coeffs == (1, 2, 1)
    assert p.pretty("n") == "n^2+2n+1"


def test_interpolate_degree_four_magic_counts():
    # frozen samples; oracle is the binomial closed form C(r+5,5) - C(r+2,5)
    samples = [(0, 1), (1, 6), (2, 21), (3, 55), (4, 120)]
    p = interpolate(samples)
    assert p.degree() == 4
    for r in range(21):
        assert p.evaluate(r) == comb(r + 5, 5) - (comb(r + 2, 5) if r >= 3 else 0)


def test_interpolate_rejects_duplicate_nodes():
    with pytest.raises(InputError):
        interpolate([(1, 1), (1, 2)])


def test_choose_generalized():
    assert choose(5, 2) == 10
    assert choose(3, 5) == 0
    assert choose(-2, 2) == 3  # (-2)(-3)/2
    assert choose(-1, 3) == -1
    assert choose(0, 0) == 1


def test_quasipoly_half_segment():
    # floor(n/2) + 1 as a period-2 quasipolynomial
    q = QuasiPoly(2, (Poly([1, Fraction(1, 2)]), Poly([Fraction(1, 2), Fraction(1, 2)])))
    assert [q.evaluate(n) for n in range(7)] == [1, 1, 2, 2, 3, 3, 4]
    assert q.evaluate(5) == 3
    assert q.degree() == 1
    assert minimal_period(q) == 2


def test_quasipoly_minimal_period_collapse():
    same = Poly([1, 1])
    q = QuasiPoly(4, (same, same, same, same))
    assert minimal_period(q) == 1
    q2 = QuasiPoly(4, (same, Poly([2]), same, Poly([2])))
    assert minimal_period(q2) == 2


def test_quasipoly_negate_argument():
    q = QuasiPoly(2, (Poly([1, Fraction(1, 2)]), Poly([Fraction(1, 2), Fraction(1, 2)])))
    neg = negate_argument(q)
    for n in range(-8, 9):
        assert neg.evaluate(n) == q.evaluate(-n)


def test_hstar_from_counts_unit_square():
    # counts (n+1)^2 for n = 0..3; independent convolution gives (1,1,0,0)
    counts = [(n + 1) ** 2 for n in range(4)]
    oracle = convolve_with_denominator(counts, 1, 3)
    assert oracle[:3] == [1, 1, 0]
    h = hstar_from_counts(counts, dim=2)
    assert h.coeffs == (1, 1)
    assert h.degree() == 1
    assert h.codegree() == 2
    assert h.is_integral_nonnegative()


def test_hstar_from_counts_centered_square():
    # counts (2n+1)^2: two-dimensional cross-section with interior points
    counts = [(2 * n + 1) ** 2 for n in range(4)]
    h = hstar_from_counts(counts, dim=2)
    assert h.coeffs == (1, 6, 1)
    assert h.codegree() == 1


def test_hstar_from_counts_rational_half_segment():
    # counts floor(n/2) + 1 over (1 - x^2)^2
    counts = [n // 2 + 1 for n in range(6)]
    h = hstar_from_counts(counts, dim=1, period=2)
    assert h.coeffs == (1, 1)
    assert h.period == 2


def test_hstar_guard_terms_reject_non_polynomial_counts():
    with pytest.raises(TheoremViolationError):
        hstar_from_counts([1, 2, 4, 8], dim=2)


def test_hstar_needs_enough_counts():
    with pytest.raises(InputError):
        hstar_from_counts([1, 4, 9], dim=2)


def test_counts_from_hstar_round_trip_and_reciprocity_values():
    h = HStarData([1, 1], dim=2)
    assert [counts_from_hstar(h, n) for n in range(5)] == [1, 4, 9, 16, 25]
    # negative arguments give signed interior counts of the square
    for n in range(1, 6):
        assert counts_from_hstar(h, -n) == (n - 1) ** 2


def test_counts_from_hstar_reads_rational_periods():
    # the half segment [0, 1/2]: floor(n/2) + 1 points, and by reciprocity
    # count(-n) = -(ceil(n/2) - 1), minus the interior points of [0, n/2]
    half = HStarData([1, 1], dim=1, period=2)
    for n in range(9):
        assert counts_from_hstar(half, n) == n // 2 + 1
        if n >= 1:
            assert counts_from_hstar(half, -n) == -((n + 1) // 2 - 1)
    # the embedded third segment [(1/3, 2/3), (4/3, 2/3)]: n + 1 points when
    # 3 | n, else none; n - 1 interior points when 3 | n, n >= 3
    third = HStarData([1, 0, 0, 2], dim=1, period=3)
    for n in range(10):
        on_lattice = n % 3 == 0
        assert counts_from_hstar(third, n) == (n + 1 if on_lattice else 0)
        if n >= 1:
            assert counts_from_hstar(third, -n) == (-(n - 1) if on_lattice else 0)


def test_hstar_degree_cap():
    with pytest.raises(InputError):
        HStarData([1] * 5, dim=2, period=1)  # degree 4 > p(d+1)-1 = 2


def test_numerator_read_off_matches_series_expansion_and_interpolation():
    # random integer numerators h over (1 - x^p)^(d+1), expanded term by
    # term with math.comb, then compared with the binomial read-off, the
    # Lagrange oracle through d + 1 values per class, and the convolution
    rng = random.Random(20261018)
    for _ in range(300):
        d, per = rng.randint(0, 4), rng.randint(1, 3)
        length = per * (d + 1) + rng.randint(0, 1)  # interior series reach p(d+1)
        h = [rng.randint(-3, 5) for _ in range(length)]
        window = per * (d + 3)
        series = [sum(h[j] * comb((n - j) // per + d, d)
                      for j in range(min(n, length - 1) + 1) if (n - j) % per == 0)
                  for n in range(window)]
        quasi = quasi_from_numerator(h, d, per)
        start = per if length > per * (d + 1) else 0  # the x^{p(d+1)} term
        for n in range(start, window):
            assert quasi.evaluate(n) == series[n], (h, d, per, n)
        for r in range(per):
            nodes = [r + per * k for k in range(1, d + 2)]
            assert quasi.constituents[r] == interpolate([(n, series[n]) for n in nodes])
        assert series_numerator(series, d, per, length) == h
        assert series_numerator(series, d, per, length) == [
            int(c) for c in convolve_with_denominator(series, per, d + 1)[:length]]
        if length == per * (d + 1):
            hstar = HStarData(h, dim=d, period=per)
            for n in range(-window, window):
                assert counts_from_hstar(hstar, n) == quasi.evaluate(n)


def test_series_numerator_guards_name_the_first_bad_coefficient():
    # (n+1)^2 for n = 0..4, then one count off by one: the guard at x^5 fires
    counts = [1, 4, 9, 16, 25, 37]
    assert series_numerator(counts[:5], 2, 1, 3) == [1, 1, 0]
    with pytest.raises(TheoremViolationError, match=r"x\^5 is 1"):
        series_numerator(counts, 2, 1, 3)
