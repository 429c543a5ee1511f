"""Sparse unit-pivot elimination with clearing, the tests' reference
for integer homology of whole boundaries.

``vorocell.cells.homology`` hands the Smith form only the Morse
boundaries its coreduction matching leaves, which are tiny.  The
references in ``test_cells`` reduce every ``cells(d)`` of a complex
instead, up to the level-31 surface, where neither sympy nor a dense
Smith form is fast enough; ``_sparse_reduce`` splits off the unit
invariant factors there one sparse pivot at a time.
"""

import heapq
from typing import AbstractSet, Iterable, Sequence

from vorocell import obs
from vorocell.linalg import smith_normal_form


def _sparse_reduce(
    columns: Sequence[Iterable[tuple[int, int]]],
    cleared: AbstractSet[int] = frozenset(),
) -> tuple[list[int], set[int]]:
    """Invariant factors (as many as the rank) and unit-pivot rows of a
    sparse integer matrix given by its columns, each a sequence of
    ``(row, value)`` pairs, with the columns in ``cleared`` left out.
    ``cells(d)`` of a complex is its d-th boundary in this form, and
    ``reference_homology`` and ``cleared_homology`` in ``test_cells``
    hand it whole boundaries.

    Takes the shortest live row first and pivots on its +-1 entry in
    the column with the fewest rows, which splits off unit invariant
    factors one at a time and keeps fill low; a row with no +-1 entry
    waits until an update gives it one.  Whatever survives without a
    unit entry goes through the dense Smith routine.  For boundary
    matrices this residual is tiny (it is where torsion lives).

    The rows of the +-1 pivots are what ``cleared_homology`` clears in
    the next degree down.  Leaving those columns out keeps the column
    lattice, so the rank and the invariant factors, exactly over the
    integers:

    - Let R be the unit-pivot rows and C the pivot columns.  Each pivot
      is a +-1 entry of the Schur complement of the pivots before it,
      and the determinant of a block is the product of its successive
      Schur pivots, so the block R x C of this matrix has determinant
      +-1 and an integer inverse.
    - The columns C times that inverse are integer combinations of the
      columns, so for each r in R the image contains e_r + v with v
      supported off R.
    - In the chain complex the next boundary kills that image:
      d(e_r) = -d(v).  Column r of the next matrix down is thus an
      integer combination of its columns outside R, and dropping all of
      R at once leaves its column lattice unchanged.

    This is clearing (Chen & Kerber, *Persistent homology computation
    with a twist*, 2011), which here holds over Z and not only over a
    field.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, column in enumerate(columns):
        if c not in cleared:
            for r, v in column:
                if v:
                    rows.setdefault(r, {})[c] = v
                    cols.setdefault(c, set()).add(r)
    # A heap of (length, row).  Every row update pushes the row's new
    # length, so an entry whose length is out of date has a current twin
    # and is skipped; any +-1 pivot is exact, so the order can only
    # affect fill, never correctness.
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    pivot_rows: set[int] = set()
    row_updates = 0
    while heap:
        length, pr = heapq.heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != length:
            continue
        pc = min(
            (c for c, v in prow.items() if v in (-1, 1)),
            key=lambda c: (len(cols[c]), c),
            default=None,
        )
        if pc is None:
            continue
        pivot = prow[pc]
        row_updates += len(cols[pc]) - 1
        for r in list(cols[pc]):
            if r == pr:
                continue
            row = rows[r]
            factor = row[pc] * pivot  # pivot is +-1, so this is exact
            for c, v in prow.items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                    cols[c].add(r)
                else:
                    del row[c]
                    cols[c].discard(r)
            if row:
                heapq.heappush(heap, (len(row), r))
            else:
                del rows[r]
        for c in prow:
            cols[c].discard(pr)
        del rows[pr]
        pivot_rows.add(pr)
    units = [1] * len(pivot_rows)
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    obs.add(
        "homology",
        unit_pivots=len(pivot_rows),
        residual_rows=len(live_rows),
        residual_cols=len(live_cols),
        row_updates=row_updates,
    )
    if not rows:
        return units, pivot_rows
    cmap = {c: i for i, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[i][cmap[c]] = v
    return units + list(smith_normal_form(dense)), pivot_rows
