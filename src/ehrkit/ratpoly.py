"""Exact univariate polynomials, quasipolynomials, and h*-vector data.

A polynomial is stored as a dense tuple of Fraction coefficients in
ascending order of exponent with trailing zeros stripped; the zero
polynomial is the empty tuple and reports degree -1. A quasipolynomial of
period p is a tuple of p constituent polynomials, constituent r covering the
arguments congruent to r mod p. h*-data couples a coefficient vector (ints
where integral) with the dimension and period that fix its denominator
(1 - x^p)^(d+1).

Counting data goes through the series numerator in integers:
`series_numerator` convolves counts with (1 - x^p)^(d+1), and
`quasi_from_numerator` reads the quasipolynomial back off it in the
binomial basis (Stanley, "Decompositions of rational convex polytopes",
1980; Beck-Robins, ch. 3). Nothing here certifies that counts are
quasipolynomial: the window n = 0..p(d+1)-1 fixes the numerator, and a
caller checks it against data from elsewhere (`enumeration` against the
relative volume, `semimagic` against the values past the window).

All arithmetic is exact. Nothing in this module ever touches floats.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb, factorial, lcm

from .errors import FrozenRecord, InputError, _set_field

RatLike = int | Fraction | str


def _coerce(value: RatLike) -> Fraction:
    if isinstance(value, float):
        raise InputError("floats are not accepted; use Fraction or 'p/q' strings")
    return Fraction(value)


def check_int(value, what: str) -> None:
    """Raise InputError unless value is an int; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an int, not {value!r}")


def _exact(value: RatLike) -> int | Fraction:
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = _coerce(value)
    return value.numerator if value.denominator == 1 else value


def choose(top: int, k: int) -> Fraction:
    """Generalized binomial coefficient C(top, k) for any integer top, k >= 0.

    Defined by the falling factorial, so it is the polynomial extension used
    for evaluating counting polynomials at negative arguments.
    """
    if k < 0:
        raise InputError("choose() needs k >= 0")
    num = 1
    for i in range(k):
        num *= top - i
    result = Fraction(num)
    for i in range(2, k + 1):
        result /= i
    return result


class Poly(FrozenRecord):
    """Dense exact polynomial; coeffs[i] is the coefficient of x^i."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):  # strips trailing zeros
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set_field(self, "coeffs", tuple(cs))

    def degree(self) -> int:
        """Degree, with the zero polynomial reporting -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def evaluate(self, x: RatLike) -> Fraction:
        if type(x) is not int:
            x = _coerce(x)
            if x.denominator != 1:
                acc = Fraction(0)
                for c in reversed(self.coeffs):
                    acc = acc * x + c
                return acc
            x = x.numerator
        # at an integer: Horner on the numerators over the common denominator
        den = lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c.numerator * (den // c.denominator)
        return Fraction(acc, den)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        return Poly((Fraction(0),) * k + self.coeffs)

    def is_palindromic(self, top: int) -> bool:
        """True iff coeffs[i] == coeffs[top - i] for 0 <= i <= top."""
        if self.degree() > top:
            return False
        return all(self[i] == self[top - i] for i in range(top + 1))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def pretty(self, var: str = "x") -> str:
        """Human-readable form like 'n^2+2n+1', highest degree first."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = var if i == 1 else f"{var}^{i}"
                body = x if mag == 1 else f"{mag}{x}"
            parts.append(sign + body)
        return "".join(parts)


def interpolate(samples: Sequence[tuple[int, RatLike]]) -> Poly:
    """Lagrange interpolation through exact sample points (n_i, value_i).

    Degree is at most len(samples) - 1; duplicate abscissas are an error.
    The library reads its polynomials off series numerators instead; this
    stays as the tests' oracle and because the benchmark tracer in
    `perfbench/tracer.py` wraps it by name.
    """
    xs = [int(x) for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise InputError("duplicate interpolation nodes")
    result = Poly()
    for xi, yi in samples:
        yi = _coerce(yi)
        if yi == 0:
            continue
        basis = Poly([1])
        denom = Fraction(1)
        for xj, _ in samples:
            if xj == xi:
                continue
            basis = basis * Poly([-xj, 1])
            denom *= xi - xj
        result = result + basis * (yi / denom)
    return result


class QuasiPoly(FrozenRecord):
    """Quasipolynomial: `constituents[n % period]` evaluated at n."""

    __slots__ = _fields = ("period", "constituents")

    def __init__(self, period: int, constituents: Sequence[Poly]):
        if period < 1 or len(constituents) != period:
            raise InputError("need exactly `period` constituents, period >= 1")
        _set_field(self, "period", int(period))
        _set_field(self, "constituents", tuple(constituents))

    def evaluate(self, n: int) -> Fraction:
        check_int(n, "quasipolynomial argument")
        return self.constituents[n % self.period].evaluate(n)

    def degree(self) -> int:
        return max(c.degree() for c in self.constituents)


class HStarData(FrozenRecord):
    """Numerator data of a rational counting series over (1 - x^p)^(d+1).

    `coeffs` holds ints where integral.
    """

    __slots__ = _fields = ("coeffs", "dim", "period")

    def __init__(self, coeffs: Iterable[RatLike], dim: int, period: int = 1):
        cs = [_exact(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        if dim < 0 or period < 1:
            raise InputError("HStarData needs dim >= 0 and period >= 1")
        if len(cs) - 1 > period * (dim + 1) - 1:
            raise InputError("h* degree exceeds p(d+1) - 1")
        _set_field(self, "coeffs", tuple(cs))
        _set_field(self, "dim", int(dim))
        _set_field(self, "period", int(period))

    def degree(self) -> int:
        """Largest index with a nonzero coefficient (0 for the zero vector)."""
        return len(self.coeffs) - 1

    def codegree(self) -> int:
        """d + 1 - s; for period 1 this is the first dilate with interior points."""
        return self.dim + 1 - self.degree()

    def poly(self) -> Poly:
        return Poly(self.coeffs)

    def coefficient(self, i: int) -> int | Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_integral_nonnegative(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for c in self.coeffs)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def series_numerator(values: Sequence[int | Fraction], dim: int, period: int) -> list:
    """Coefficients below len(values) of (sum_n values[n] x^n) * (1 - x^p)^(d+1).

    The coefficient at i is sum_k (-1)^k C(d+1, k) values[i - kp], an
    integer convolution for integer values.
    """
    signed = [(-1) ** k * comb(dim + 1, k) for k in range(dim + 2)]
    return [sum(signed[k] * values[i - k * period]
                for k in range(min(dim + 1, i // period) + 1))
            for i in range(len(values))]


def _binomial_numerator(coeffs: Sequence[int | Fraction], dim: int, period: int,
                        r: int) -> list:
    """d! p^d times constituent r of the series coeffs / (1 - x^p)^(d+1).

    Returns the coefficients, ascending in x, of
    sum_s coeffs[r + ps] * prod_{i=1..d} (x - r - ps + p i): the coefficient
    of x^n in coeffs[j] x^j / (1 - x^p)^(d+1) is coeffs[j] C((n - j)/p + d, d)
    for n = j mod p, and that binomial is prod_{i=1..d} (n - j + p i) / (d! p^d).
    """
    total = [0] * (dim + 1)
    for j in range(r, len(coeffs), period):
        if not coeffs[j]:
            continue
        product = [coeffs[j]]
        for i in range(1, dim + 1):
            shift = period * i - j
            # times (x + shift)
            product = ([shift * product[0]]
                       + [product[k - 1] + shift * product[k] for k in range(1, i)]
                       + [product[-1]])
        for k, c in enumerate(product):
            total[k] += c
    return total


def quasi_from_numerator(coeffs: Sequence[int | Fraction], dim: int,
                         period: int) -> QuasiPoly:
    """The quasipolynomial whose series is coeffs / (1 - x^p)^(d+1).

    Constituent r is sum_s coeffs[r + ps] C((n - r - ps)/p + d, d). It gives
    the series coefficient at every n >= 0 of its class when the numerator
    has degree below p(d+1); a coefficient at p(d+1) (as in an interior
    series, which is 0 at n = 0) is matched from n = p on.
    """
    scale = factorial(dim) * period ** dim
    return QuasiPoly(period, [
        Poly([Fraction(c, scale) for c in _binomial_numerator(coeffs, dim, period, r)])
        for r in range(period)
    ])


def hstar_from_counts(counts: Sequence[RatLike], dim: int, period: int = 1) -> HStarData:
    """Numerator of (sum_n counts[n] x^n) * (1 - x^p)^(d+1), read from
    exactly the window n = 0..p(d+1)-1 (InputError otherwise).

    The window fixes the numerator whatever the counts are; that they are
    degree-d period-p data is the caller's to check, against the values
    past the window or against the volume.
    """
    cs = [_exact(c) for c in counts]
    top = period * (dim + 1)
    if len(cs) != top:
        raise InputError(
            f"need counts for exactly n = 0..{top - 1} (got {len(cs)} values)"
        )
    return HStarData(series_numerator(cs, dim, period), dim=dim, period=period)
