"""Exact univariate polynomials, quasipolynomials, and h*-vector data.

A polynomial is stored as a dense tuple of Fraction coefficients in
ascending order of exponent with trailing zeros stripped; the zero
polynomial is the empty tuple and reports degree -1. A quasipolynomial of
period p is a tuple of p constituent polynomials, constituent r covering the
arguments congruent to r mod p. h*-data couples an integer coefficient
vector with the dimension and period that fix its denominator
(1 - x^p)^(d+1).

All arithmetic is exact. Nothing in this module ever touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, TheoremViolationError, UnsupportedError

RatLike = int | Fraction | str


def _coerce(value: RatLike) -> Fraction:
    if isinstance(value, float):
        raise InputError("floats are not accepted; use Fraction or 'p/q' strings")
    return Fraction(value)


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


@dataclass(frozen=True)
class Poly:
    """Dense exact polynomial; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):  # strips trailing zeros
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def power(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InputError("negative polynomial power")
        result = Poly([1])
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, x: RatLike) -> Fraction:
        x = _coerce(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


@dataclass(frozen=True)
class QuasiPoly:
    """Quasipolynomial: `constituents[n % period]` evaluated at n."""

    period: int
    constituents: tuple[Poly, ...]

    def __init__(self, period: int, constituents: Sequence[Poly]):
        if period < 1 or len(constituents) != period:
            raise InputError("need exactly `period` constituents, period >= 1")
        object.__setattr__(self, "period", int(period))
        object.__setattr__(self, "constituents", tuple(constituents))

    def evaluate(self, n: int) -> Fraction:
        return self.constituents[n % self.period].evaluate(n)

    def degree(self) -> int:
        return max(c.degree() for c in self.constituents)

    def minimal_period(self) -> int:
        """Smallest divisor q of the period with q-periodic constituents."""
        for q in range(1, self.period + 1):
            if self.period % q:
                continue
            if all(
                self.constituents[r] == self.constituents[r % q]
                for r in range(self.period)
            ):
                return q
        return self.period

    def negate_argument(self) -> "QuasiPoly":
        """The quasipolynomial n -> self(-n), same period."""
        p = self.period
        flipped = []
        for r in range(p):
            base = self.constituents[(-r) % p]
            flipped.append(Poly([c * (-1) ** i for i, c in enumerate(base.coeffs)]))
        return QuasiPoly(p, flipped)


@dataclass(frozen=True)
class HStarData:
    """Numerator data of a rational counting series over (1 - x^p)^(d+1)."""

    coeffs: tuple[Fraction, ...]
    dim: int
    period: int

    def __init__(self, coeffs: Iterable[RatLike], dim: int, period: int = 1):
        cs = [_coerce(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        if dim < 0 or period < 1:
            raise InputError("HStarData needs dim >= 0 and period >= 1")
        if len(cs) - 1 > period * (dim + 1) - 1:
            raise InputError("h* degree exceeds p(d+1) - 1")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "period", int(period))

    def degree(self) -> int:
        """Largest index with a nonzero coefficient (0 for the zero vector)."""
        return len(self.coeffs) - 1

    def codegree(self) -> int:
        """d + 1 - s; for period 1 this is the first dilate with interior points."""
        return self.dim + 1 - self.degree()

    def poly(self) -> Poly:
        return Poly(self.coeffs)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_integral_nonnegative(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for c in self.coeffs)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def hstar_from_counts(counts: Sequence[RatLike], dim: int, period: int = 1) -> HStarData:
    """Numerator of (sum_n counts[n] x^n) * (1 - x^p)^(d+1).

    `counts` must cover n = 0..p(d+1)-1 plus at least one guard term; the
    product's coefficients at indices p(d+1) and beyond must vanish, which is
    what certifies that the counts really come from a degree-d
    quasipolynomial of period p. Raises TheoremViolationError otherwise.
    """
    cs = [_coerce(c) for c in counts]
    top = period * (dim + 1)
    if len(cs) < top + 1:
        raise InputError(
            f"need counts for n = 0..{top} (got {len(cs)} values); "
            "include at least one guard term past the numerator degree"
        )
    series = Poly(cs)
    denominator = (Poly([1]) - Poly([0] * period + [1])).power(dim + 1)
    product = series * denominator
    numerator = [product[i] for i in range(top)]
    for i in range(top, len(cs)):
        if product[i] != 0:
            raise TheoremViolationError(
                f"guard coefficient at x^{i} is {product[i]}, expected 0: "
                f"counts are not degree-{dim} period-{period} data"
            )
    return HStarData(numerator, dim=dim, period=period)


def counts_from_hstar(h: HStarData, n: int) -> Fraction:
    """Evaluate the counting polynomial encoded by h* at integer n (period 1).

    Uses the binomial basis: count(n) = sum_k h*_k C(n + d - k, d).
    """
    if h.period != 1:
        raise UnsupportedError("counts_from_hstar is defined for period 1 only")
    d = h.dim
    return sum(
        (h.coefficient(k) * choose(n + d - k, d) for k in range(len(h.coeffs))),
        Fraction(0),
    )
