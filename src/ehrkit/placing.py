"""Incremental (placing) triangulation of rational point configurations.

Points are inserted one at a time in the caller's order. A point outside
the current hull is joined to every boundary facet it sees strictly; a point
that raises the affine dimension is joined to every current cell; a point
inside or on the current hull adds nothing (it is simply not used as a
vertex). All predicates are exact sign tests over Fractions.

The caller controls insertion order. Lexicographic order guarantees that
every point lands outside the hull of its predecessors, hence becomes a
vertex; arbitrary order (used for cone cross-sections, where the generator
order is part of the contract) may skip interior points, which is fine
there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg

Point = tuple[Fraction, ...]


def placing_cells(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Triangulate conv(points) incrementally; cells are index tuples.

    Every cell is a full-dimensional simplex of the final affine hull,
    listed in creation order with sorted vertex indices.
    """
    if not points:
        return []
    base = points[0]
    directions: list[Point] = []  # row-reduced basis of the current hull
    cells: list[tuple[int, ...]] = [(0,)]
    cur_dim = 0

    for i in range(1, len(points)):
        q = points[i]
        diff = linalg.vec_sub(q, base)
        enlarged, _ = linalg.row_reduce(directions + [diff])
        if len(enlarged) > cur_dim:
            # dimension jump: cone every existing cell over the new point
            cells = [cell + (i,) for cell in cells]
            directions = list(enlarged)
            cur_dim += 1
            continue
        added = []
        for facet, apex in boundary_facets(cells):
            a, c = facet_hyperplane(points, facet, directions)
            apex_side = linalg.dot(a, points[apex]) - c
            q_side = linalg.dot(a, q) - c
            if apex_side * q_side < 0:  # strictly visible
                added.append(tuple(sorted(facet + (i,))))
        cells.extend(added)
    return cells


def boundary_facets(cells: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """(facet, apex) pairs for facets lying in exactly one cell."""
    seen: dict[tuple[int, ...], list[int]] = {}
    for cell in cells:
        for drop in cell:
            facet = tuple(v for v in cell if v != drop)
            seen.setdefault(facet, []).append(drop)
    return [(facet, apexes[0]) for facet, apexes in seen.items() if len(apexes) == 1]


def facet_hyperplane(points: Sequence[Point], facet: tuple[int, ...],
                     directions: list[Point]) -> tuple[Point, Fraction]:
    """Hyperplane <a, x> = c through the facet, with a in the hull's span."""
    k = len(directions)
    f0 = points[facet[0]]
    rows = [
        [linalg.dot(linalg.vec_sub(points[v], f0), b) for b in directions]
        for v in facet[1:]
    ]
    kernel = linalg.nullspace(rows, ncols=k)
    if len(kernel) != 1:
        raise AssertionError(f"degenerate facet {facet} in placing triangulation")
    y = kernel[0]
    ambient = len(f0)
    a = tuple(
        sum((y[i] * directions[i][j] for i in range(k)), Fraction(0))
        for j in range(ambient)
    )
    return a, linalg.dot(a, f0)
