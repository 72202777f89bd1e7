"""Incremental (placing) triangulation of homogeneous vector configurations.

The input vectors are homogeneous integer vectors: a polytope's point p is
passed as (p L, L) for L the lcm of the denominators, 1 for a lattice
polytope, a pointed cone's generator as itself. Vectors are inserted one
at a time in the caller's order. A vector outside the span of the current
cells raises the dimension and is joined to every current cell; otherwise
it is joined to every boundary facet it sees strictly, and a vector inside
or on the current hull adds nothing (it is simply not used as a vertex).

Both predicates are exact sign tests on the barycentric coordinates of one
cell, read from its `linalg.simplex_solve`: q raises the dimension
when a span row of the first cell's solve is nonzero at q, and q sees the
boundary facet opposite `apex` strictly when its coordinate on `apex` in
the solve of that facet's cell is negative. Scaling a vector by a positive
factor keeps the signs of its coordinates, so for a pointed cone this is
visibility in any cross-section, and for points (p, 1) visibility of a
facet of the hull.

Placing starts from the empty configuration, one empty cell whose solve
has no T rows and the unit rows as C, so the first vector is a jump like
any other. Each cell's solve is made once, with the cell, and kept in a
list beside the cells: at a jump each cell is coned over q and their
solves, which share the span's C rows, are extended by q in one call
(`linalg.jump_solve`), and a cell made from a boundary facet swaps its
cell's apex for q, one exchange pivot of the kept solve
(`linalg.exchange_solve`). The boundary is a dict from each boundary facet
to its visibility row, the apex row of its cell's solve, kept with that
solve and the apex position; each new cell toggles its facets in or out of
it, and after a jump it is rebuilt from the list. Its order, by cell
creation and then dropped vertex, is the order in which new cells are
appended. `placing_cells` returns each cell with its solve, so no reader
solves a cell again, and keeps its last placings for calls on an identical
vector list; `boundary_rows` builds the same dict from those pairs, for
the hull's facets, a triangulation's boundary and a cone's pointedness.

The caller controls insertion order. Lexicographic order guarantees that
every point lands outside the hull of its predecessors, hence becomes a
vertex; arbitrary order (used for cone generators, where the generator
order is part of the contract) may skip interior vectors, which is fine
there.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from . import linalg


# Each placing is kept for the next call that places an identical vector
# list: the hull, the triangulations and the cone pieces of one polytope
# place the same lifted vertices. Equal vectors give equal cells and solves.
@lru_cache(maxsize=32)
def placing_cells(vectors: tuple[tuple, ...]) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """Triangulate the homogeneous vectors incrementally: (cell, solve) pairs.

    Every cell is a simplex spanning the vectors' final span, its sorted
    vertex indices, listed in creation order with its vectors'
    `linalg.simplex_solve`; all the solves share one tuple of C rows.
    """
    n = len(vectors[0]) if vectors else 0
    # the empty configuration: one empty cell, whose C rows are the unit rows
    cells: list[tuple[int, ...]] = [()]
    solves = [linalg.empty_solve(n)]
    boundary: dict[tuple[int, ...], tuple] | None = None  # None: to be rebuilt

    for i, q in enumerate(vectors):
        if any(linalg.int_dot(row, q) for row in solves[0][1]):
            # dimension jump: cone every existing cell over the new vector
            cells = [cell + (i,) for cell in cells]
            solves = linalg.jump_solve(q, solves)
            boundary = None
            continue
        if boundary is None:
            boundary = boundary_rows(zip(cells, solves))
        # strictly visible facets; i is the largest index, so facet + (i,) is sorted
        added = [(facet + (i,), solve, apex) for facet, (row, solve, apex) in boundary.items()
                 if linalg.int_dot(row, q) < 0]
        for cell, solve, apex in added:
            solves.append(linalg.exchange_solve(q, solve, apex))
            _toggle(boundary, cell, solves[-1])
        cells.extend(cell for cell, _, _ in added)
    return tuple(zip(cells, solves)) if cells[0] else ()


def _toggle(boundary: dict, cell: tuple[int, ...], solve: tuple) -> None:
    """Add each facet of the cell to the boundary with its apex row, the
    cell's solve and the apex position, or remove it when an earlier cell
    already has it."""
    for pos, (row, _) in enumerate(solve[0]):
        facet = cell[:pos] + cell[pos + 1:]
        if boundary.pop(facet, None) is None:
            boundary[facet] = (row, solve, pos)


def boundary_rows(placed: Iterable[tuple]) -> dict[tuple[int, ...], tuple]:
    """Each facet that lies in exactly one of the (cell, solve) pairs, mapped
    to (apex row, cell solve, apex position), in the order of the cells and
    then of the dropped vertex: placing's boundary, built from finished
    cells."""
    boundary: dict[tuple[int, ...], tuple] = {}
    for cell, solve in placed:
        _toggle(boundary, cell, solve)
    return boundary
