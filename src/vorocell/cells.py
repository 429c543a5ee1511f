"""Finite regular cell complexes and simplicial complexes: chain
complexes, subdivision, and integer homology.

A regular complex is stored as integer cells: per dimension, the sorted
cell ids and each cell's signed faces as indices one dimension down.
Builders make it correct by construction; a loaded document is checked
once, for consistent faces and the chain condition (the boundary of a
boundary vanishes).  A simplicial complex builds its boundary matrices
straight from its sorted integer faces.  ``homology`` reads only
``f_vector()`` and ``boundary_matrix(d)`` of either kind and works over
the integers via Smith normal form, with a sparse unit-pivot
elimination pass that takes the shortest row first, so that boundary
matrices with tens of thousands of cells stay tractable.
Degrees are reduced from the top down with clearing: the rows of the
unit pivots of one boundary matrix are columns the next one down may
drop, because each such column is an integer combination of the others
(the argument is in ``_sparse_reduce``), so rank and torsion are
unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import AbstractSet, Iterable, Mapping, Optional

from . import obs
from .linalg import _integer, smith_normal_form


class RegularComplex:
    """A finite regular cell complex as integer cells.

    ``ids[d]`` lists the ids of the d-cells in sorted order, and
    ``faces[d][j]`` is the boundary of cell ``ids[d][j]``: its ``(index
    in dimension d-1, sign)`` pairs, in the order the cell lists them.
    The constructor trusts its arguments.  ``from_json_dict`` holds a
    document to ``check``, and the tests hold every builder to it.
    """

    def __init__(
        self, ids: list[list[str]], faces: list[list[tuple[tuple[int, int], ...]]]
    ) -> None:
        self.ids = ids
        self.faces = faces

    def check(self) -> None:
        """Raise ValueError unless the cells form a regular complex: ids
        unique and sorted in each dimension, no empty dimension, no faces
        on a vertex, a nonempty boundary on every other cell, faces that
        exist one dimension down, signs in {-1, +1}, no repeated face,
        and a boundary of a boundary that vanishes."""
        ids, faces = self.ids, self.faces
        if list(map(len, ids)) != list(map(len, faces)):
            raise ValueError("ids and faces differ in shape")
        seen: set[str] = set()
        for d, group in enumerate(ids):
            if not group:
                raise ValueError(f"no cells of dimension {d}")
            for cid in group:
                if cid in seen:
                    raise ValueError(f"duplicate cell id {cid!r}")
                seen.add(cid)
            if any(a >= b for a, b in zip(group, group[1:])):
                raise ValueError(f"cell ids of dimension {d} are not sorted")
        for d, cells in enumerate(faces):
            below = ids[d - 1] if d else []
            for cid, cell in zip(ids[d], cells):
                if d == 0 and cell:
                    raise ValueError(f"vertex {cid!r} must not list faces")
                if d > 0 and not cell:
                    raise ValueError(f"cell {cid!r} of dimension {d} has no faces")
                listed: set[int] = set()
                for k, sign in cell:
                    if not 0 <= k < len(below):
                        raise ValueError(f"cell {cid!r} references unknown face {k}")
                    if sign not in (-1, 1):
                        raise ValueError(f"face sign of {below[k]!r} in {cid!r} must be -1 or +1")
                    if k in listed:
                        raise ValueError(f"face {below[k]!r} repeated in cell {cid!r}")
                    listed.add(k)
                acc: dict[int, int] = {}  # the boundary of the boundary
                for k, sign in cell:
                    for m, s in faces[d - 1][k]:
                        acc[m] = acc.get(m, 0) + sign * s
                bad = [ids[d - 2][m] for m, v in acc.items() if v]
                if bad:
                    raise ValueError(f"boundary of boundary of {cid!r} is nonzero at {bad[0]!r}")

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.ids))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * k for d, k in enumerate(self.f_vector()))

    def boundary_matrix(self, d: int) -> dict[tuple[int, int], int]:
        """Sparse boundary map from d-cells to (d-1)-cells.

        Entry (i, j) is the incidence of the i-th (d-1)-cell in the
        boundary of the j-th d-cell, both in sorted-id order.
        """
        if not 0 < d < len(self.faces):
            return {}
        return {(k, j): s for j, cell in enumerate(self.faces[d]) for k, s in cell}

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        ids = self.ids
        cells = [
            {"id": cid, "dim": d, "faces": [{"id": ids[d - 1][k], "sign": s} for k, s in cell]}
            for d, group in enumerate(self.faces)
            for cid, cell in zip(ids[d], group)
        ]
        return {"format": 1, "dims": list(self.f_vector()), "cells": cells}

    @staticmethod
    def from_json_dict(doc: dict) -> "RegularComplex":
        """The complex a document describes, numbered in sorted-id order
        and validated by ``check``.  Numbering needs faces that exist one
        dimension down and dimensions from 0 up with no gap, so those
        faults are reported here."""
        if doc.get("format") != 1:
            raise ValueError("unsupported complex format")
        entries = doc["cells"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("cells must be a list of objects")
        for entry in entries:
            listed = entry["faces"]
            if not isinstance(listed, list) or not all(isinstance(f, dict) for f in listed):
                raise ValueError("faces must be a list of objects")
        cells = [  # every field is parsed, in document order, before any is checked
            (str(e["id"]), _integer(e["dim"], "dim must be an integer"), [
                (str(f["id"]), _integer(f["sign"], "sign must be an integer")) for f in e["faces"]
            ])
            for e in entries
        ]
        dim_of = {cid: dim for cid, dim, _ in cells}  # a duplicate id is check()'s to report
        cells.sort(key=lambda c: (c[1], c[0]))
        ids: list[list[str]] = []
        faces: list[list[tuple[tuple[int, int], ...]]] = []
        index: dict[str, int] = {}  # id -> its index within its dimension
        for cid, dim, listed in cells:
            if dim < 0:
                raise ValueError(f"cell {cid!r} has negative dimension")
            if dim == 0 and listed:
                raise ValueError(f"vertex {cid!r} must not list faces")
            resolved = []
            for fid, sign in listed:
                fdim = dim_of.get(fid)
                if fdim is None:
                    raise ValueError(f"cell {cid!r} references unknown face {fid!r}")
                if fdim != dim - 1:
                    raise ValueError(
                        f"face {fid!r} of {cid!r} has dimension {fdim}, expected {dim - 1}"
                    )
                resolved.append((index[fid], sign))
            if dim > len(ids):  # a gap, so no faces; a huge dim sizes no list
                raise ValueError(f"cell {cid!r} of dimension {dim} has no faces")
            if dim == len(ids):
                ids.append([])
                faces.append([])
            index[cid] = len(ids[dim])
            ids[dim].append(cid)
            faces[dim].append(tuple(resolved))
        cx = RegularComplex(ids, faces)
        cx.check()
        if "dims" in doc:
            message = "dims must be a list of integers"
            if not isinstance(doc["dims"], list):
                raise ValueError(message)
            if list(cx.f_vector()) != [_integer(k, message) for k in doc["dims"]]:
                raise ValueError("cell counts disagree with the dims header")
        return cx


def _facets_of(simplex: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The codimension-one faces of a sorted simplex with their signs in
    the sorted-vertex orientation: the face dropping the i-th vertex
    enters with sign (-1)^i."""
    return [(simplex[:i] + simplex[i + 1 :], (-1) ** i) for i in range(len(simplex))]


class SimplicialComplex:
    """An abstract simplicial complex given by its maximal faces."""

    def __init__(self, maximal_faces: Iterable[Iterable[int]]) -> None:
        cleaned = set()
        for f in maximal_faces:
            fs = frozenset(int(v) for v in f)
            if not fs:
                raise ValueError("empty face")
            cleaned.add(fs)
        # drop faces contained in a strictly larger one; only faces of
        # greater cardinality can contain them, so pure inputs skip this
        by_size: dict[int, list[frozenset[int]]] = {}
        for fs in cleaned:
            by_size.setdefault(len(fs), []).append(fs)
        larger: list[frozenset[int]] = []
        kept: list[frozenset[int]] = []
        for size in sorted(by_size, reverse=True):
            for fs in by_size[size]:
                if not any(fs < g for g in larger):
                    kept.append(fs)
            larger.extend(by_size[size])
        self.maximal_faces = tuple(sorted(tuple(sorted(f)) for f in kept))
        if not self.maximal_faces:
            raise ValueError("complex has no faces")
        self._faces: Optional[dict[int, list[tuple[int, ...]]]] = None

    def faces(self) -> dict[int, list[tuple[int, ...]]]:
        """All faces grouped by dimension, each sorted lexicographically."""
        if self._faces is None:
            # maximal faces are sorted, so their combinations are too
            seen: set[tuple[int, ...]] = set()
            for f in self.maximal_faces:
                for k in range(1, len(f) + 1):
                    seen.update(combinations(f, k))
            grouped: dict[int, list[tuple[int, ...]]] = {}
            for t in seen:
                grouped.setdefault(len(t) - 1, []).append(t)
            for d in grouped:
                grouped[d].sort()
            self._faces = grouped
        return self._faces

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.maximal_faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        faces = self.faces()
        return tuple(len(faces.get(d, [])) for d in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * k for d, k in enumerate(self.f_vector()))

    def boundary_matrix(self, d: int) -> dict[tuple[int, int], int]:
        """Sparse boundary map from d-faces to (d-1)-faces, d >= 1, both
        indexed in the sorted order of ``faces()``; signs as in
        ``_facets_of``."""
        faces = self.faces()
        rows = {f: i for i, f in enumerate(faces.get(d - 1, ()))}
        out: dict[tuple[int, int], int] = {}
        for j, s in enumerate(faces.get(d, ())):
            for f, sign in _facets_of(s):
                out[(rows[f], j)] = sign
        return out

    def to_regular(self) -> RegularComplex:
        """The same complex as signed cells, each named by its vertices
        joined by dots, with the orientation of ``_facets_of``."""
        ids: list[list[str]] = []
        faces: list[list[tuple[tuple[int, int], ...]]] = []
        index: dict[tuple[int, ...], int] = {}  # simplex -> index one dimension down
        for d, simplices in sorted(self.faces().items()):
            # "1.10" sorts before "1.2", so the ids are not in simplex order
            named = sorted((".".join(map(str, s)), s) for s in simplices)
            ids.append([name for name, _ in named])
            faces.append([
                tuple((index[f], sign) for f, sign in _facets_of(s)) if d else ()
                for _, s in named
            ])
            index = {s: k for k, (_, s) in enumerate(named)}
        return RegularComplex(ids, faces)

    def subdivide(self) -> "SimplicialComplex":
        return barycentric_subdivision(self.to_regular())

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "maximal_faces": [list(f) for f in self.maximal_faces],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "SimplicialComplex":
        if doc.get("format") != 1:
            raise ValueError("unsupported complex format")
        faces = doc["maximal_faces"]
        if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
            raise ValueError("maximal_faces must be a list of lists")
        message = "maximal_faces must be a list of lists of integers"
        return SimplicialComplex([_integer(v, message) for v in f] for f in faces)


def barycentric_subdivision(cx: RegularComplex) -> SimplicialComplex:
    """The order complex of the face poset: one vertex per cell, one
    maximal simplex per maximal chain of proper face relations.

    Vertices are numbered by the (dim, id) sort of the original cells,
    so the result is deterministic."""
    offset = list(accumulate(map(len, cx.ids), initial=0))
    covered = {(d - 1, k) for d, cells in enumerate(cx.faces) for c in cells for k, _ in c}
    chains: list[tuple[int, ...]] = []

    def descend(d: int, j: int, acc: list[int]) -> None:
        acc.append(offset[d] + j)
        if d == 0:  # vertex numbers fall with the dimension along the chain
            chains.append(tuple(reversed(acc)))
        for k, _ in cx.faces[d][j]:
            descend(d - 1, k, acc)
        acc.pop()

    for d, group in enumerate(cx.ids):
        for j in range(len(group)):
            if (d, j) not in covered:
                descend(d, j, [])
    return SimplicialComplex(chains)


# -- homology ---------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]  # invariant factors > 1, per degree


def _sparse_reduce(
    entries: Mapping[tuple[int, int], int],
    cleared: AbstractSet[int] = frozenset(),
) -> tuple[list[int], set[int]]:
    """Invariant factors (as many as the rank) and unit-pivot rows of a
    sparse integer matrix, with the columns in ``cleared`` left out.

    Takes the shortest live row first and pivots on its +-1 entry in
    the column with the fewest rows, which splits off unit invariant
    factors one at a time and keeps fill low; a row with no +-1 entry
    waits until an update gives it one.  Whatever survives without a
    unit entry goes through the dense Smith routine.  For boundary
    matrices this residual is tiny (it is where torsion lives).

    The rows of the +-1 pivots are what ``homology`` clears in the next
    degree down.  Leaving those columns out keeps the column lattice,
    so the rank and the invariant factors, exactly over the integers:

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
    for (r, c), v in entries.items():
        if v and c not in cleared:
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
    factors, _ = smith_normal_form(dense)
    return units + list(factors), pivot_rows


def homology(cx: "RegularComplex | SimplicialComplex") -> HomologyResult:
    """Integer homology of the complex: in each degree the Betti number
    and the torsion invariant factors, read off ``cx.f_vector()`` and
    ``cx.boundary_matrix(d)``.  The Betti numbers are those over the
    rationals too (universal coefficients).

    Degrees are reduced from the top down, and each boundary matrix
    leaves out the columns cleared by the unit pivots of the one above
    (see ``_sparse_reduce`` for why this is exact over Z)."""
    counts = cx.f_vector()
    top = len(counts) - 1
    factors: list[list[int]] = [[] for _ in range(top + 2)]
    cleared: set[int] = set()
    for d in range(top, 0, -1):
        factors[d], cleared = _sparse_reduce(cx.boundary_matrix(d), cleared)
    betti = tuple(
        counts[d] - len(factors[d]) - len(factors[d + 1]) for d in range(top + 1)
    )
    torsion = tuple(
        tuple(f for f in factors[d + 1] if f > 1) for d in range(top + 1)
    )
    return HomologyResult(betti=betti, torsion=torsion)
