"""Incremental (placing) triangulation of homogeneous vector configurations.

The input vectors are homogeneous: a polytope's point p is passed as
(p, 1), a pointed cone's generator as itself. Vectors are inserted one at a
time in the caller's order. A vector outside the span of the current cells
raises the dimension and is joined to every current cell; otherwise it is
joined to every boundary facet it sees strictly, and a vector inside or on
the current hull adds nothing (it is simply not used as a vertex).

Both predicates are exact sign tests on the barycentric coordinates of one
cell, read from its cached `linalg.simplex_solve`: q raises the dimension
when a span row of the first cell's solve is nonzero at q, and q sees the
boundary facet opposite `apex` strictly when its coordinate on `apex` in
the solve of that facet's cell is negative. Scaling a vector by a positive
factor keeps the signs of its coordinates, so for a pointed cone this is
visibility in any cross-section, and for points (p, 1) visibility of a
facet of the hull.

The boundary is a dict from each boundary facet to its visibility row,
the apex row of its cell's solve, kept with that solve and the apex
position. A cell made from a boundary facet swaps that cell's apex for q,
so its solve is one exchange pivot of the kept solve
(`linalg.exchange_solve`), looked up in the solve cache first; only the
first cell, the cells of a dimension jump and cells with a non-integer
vector q run the elimination. Each cell's solve is made once, when the
cell is created, and the cell toggles its facets in or out of the dict;
after a dimension jump the dict is rebuilt from all cells. Its order, by
cell creation and then dropped vertex, is the order in which new cells are
appended. `boundary_rows` builds the same dict from finished cells, for
the hull's facets, a triangulation's boundary and a cone's pointedness.

The caller controls insertion order. Lexicographic order guarantees that
every point lands outside the hull of its predecessors, hence becomes a
vertex; arbitrary order (used for cone generators, where the generator
order is part of the contract) may skip interior vectors, which is fine
there.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import linalg


def placing_cells(vectors: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Triangulate the homogeneous vectors incrementally; cells are index tuples.

    Every cell is a simplex spanning the vectors' final span, listed in
    creation order with sorted vertex indices.
    """
    if not vectors:
        return []
    cells: list[tuple[int, ...]] = [(0,)]
    first = linalg.simplex_solve((vectors[0],))  # cells[0]'s; its C rows test the span
    boundary: dict[tuple[int, ...], tuple] | None = None  # None: to be rebuilt

    for i in range(1, len(vectors)):
        q = vectors[i]
        if any(linalg.int_dot(row, q) for row in first[1]):
            # dimension jump: cone every existing cell over the new vector
            cells = [cell + (i,) for cell in cells]
            first = linalg.simplex_solve(tuple(vectors[v] for v in cells[0]))
            boundary = None
            continue
        if boundary is None:
            boundary = {}
            _toggle(boundary, cells[0], first)
            for cell in cells[1:]:
                _toggle(boundary, cell, linalg.simplex_solve(tuple(vectors[v] for v in cell)))
        # strictly visible facets; i is the largest index, so facet + (i,) is sorted
        added = [(facet + (i,), solve, apex) for facet, (row, solve, apex) in boundary.items()
                 if linalg.int_dot(row, q) < 0]
        for cell, solve, apex in added:
            _toggle(boundary, cell,
                    linalg.exchange_solve(tuple(vectors[v] for v in cell), solve, apex))
        cells.extend(cell for cell, _, _ in added)
    return cells


def _toggle(boundary: dict, cell: tuple[int, ...], solve: tuple) -> None:
    """Add each facet of the cell to the boundary with its apex row, the
    cell's solve and the apex position, or remove it when an earlier cell
    already has it."""
    for pos, (row, _) in enumerate(solve[0]):
        facet = cell[:pos] + cell[pos + 1:]
        if boundary.pop(facet, None) is None:
            boundary[facet] = (row, solve, pos)


def boundary_rows(vectors: Sequence[tuple],
                  cells: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], tuple]:
    """Each facet that lies in exactly one cell, mapped to (apex row, cell
    solve, apex position), in the order of the cells and then of the dropped
    vertex: placing's boundary, built from each cell's cached solve."""
    boundary: dict[tuple[int, ...], tuple] = {}
    for cell in cells:
        _toggle(boundary, cell, linalg.simplex_solve(tuple(vectors[v] for v in cell)))
    return boundary
