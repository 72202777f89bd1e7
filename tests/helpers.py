"""Helpers shared by the test modules: short forms of things the library
has no caller for, and seeded test inputs."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from ehrkit.cones import RationalCone, decompose, homogenize
from ehrkit.polytope import RationalPolytope
from ehrkit.ratpoly import Poly, QuasiPoly, RatLike


def normalize(points: Iterable[Sequence[RatLike]], name: str = "") -> RationalPolytope:
    """Functional alias for RationalPolytope.from_points."""
    return RationalPolytope.from_points(points, name=name)


def cone_contains(cone: RationalCone, x: Sequence) -> bool:
    """Exact membership in the closed cone: x lies in some closed piece."""
    return any(piece.contains(x, respect_flags=False) for piece in decompose(cone))


def minimal_period(q: QuasiPoly) -> int:
    """Smallest divisor r of the period with r-periodic constituents."""
    for r in range(1, q.period + 1):
        if q.period % r == 0 and all(q.constituents[i] == q.constituents[i % r]
                                     for i in range(q.period)):
            return r
    return q.period


def negate_argument(q: QuasiPoly) -> QuasiPoly:
    """The quasipolynomial n -> q(-n), same period."""
    p = q.period
    return QuasiPoly(p, [Poly([c * (-1) ** i for i, c in enumerate(q.constituents[(-r) % p].coeffs)])
                         for r in range(p)])


def lattice_cloud(seed: int, dim: int, size: int, side: int) -> list[tuple[int, ...]]:
    """`size` distinct seeded points of {0..side}^dim, sorted."""
    rng = random.Random(seed)
    points: set[tuple[int, ...]] = set()
    while len(points) < size:
        points.add(tuple(rng.randint(0, side) for _ in range(dim)))
    return sorted(points)


def cloud_cone(seed: int, dim: int, size: int, side: int) -> RationalCone:
    """The cone over the hull of a seeded lattice cloud, lifted to height 1."""
    return homogenize(RationalPolytope.from_points(lattice_cloud(seed, dim, size, side)))
