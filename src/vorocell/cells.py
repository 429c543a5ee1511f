"""Finite regular cell complexes and simplicial complexes: chain
complexes, subdivision, and integer homology.

Both kinds give their boundaries in one integer form, ``cells(d)``:
each d-cell's signed faces as ``(index in dimension d-1, sign)`` pairs.
A regular complex stores them per dimension beside its sorted cell ids;
builders make it correct by construction, and a loaded document is
checked once, as the loader numbers its cells, for consistent faces and
the chain condition (the boundary of a boundary vanishes).  A
simplicial complex numbers its faces and their boundaries in one pass,
when ``faces()`` is first called: each face of each simplex is looked
up once, and its number, in ``faces()`` order, is kept in one flat list
per dimension, which ``cells(d)`` pairs with the signs.
``homology`` and ``barycentric_subdivision`` read only ``f_vector()``
and ``cells(d)``.

Homology works over the integers in two steps.  An acyclic matching by
coreductions first pairs off nearly every cell: a cell with exactly one
live face is matched with that face, and when no such cell is queued,
the lowest live cell, which has no live face, is critical.  The Morse
boundary of a degree with critical cells on both sides comes from one
routine, a memo of the images of the cells one dimension down on the
critical cells there, computed in removal order.  Where the degree
itself has fewer critical cells, the routine runs on the coboundary,
with the pairs in reverse removal order, and gives the transpose, which
has the same Smith form; so the side only sets the memo's size.  The
result is exact over the integers, because
every pairing has incidence +-1 and the removal order makes the
matching acyclic (the arguments are in ``homology``).  The matching
has taken the free faces, so the Smith form gets only the nonzero
support of each Morse boundary: the rows and columns that hold an
entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, count, cycle, repeat
from typing import Iterable, Mapping, Optional, Sequence

from . import obs
from .linalg import _check_format, _integer, smith_normal_form


class RegularComplex:
    """A finite regular cell complex as integer cells.

    ``ids[d]`` lists the ids of the d-cells in sorted order, and
    ``faces[d][j]`` is the boundary of cell ``ids[d][j]``: its ``(index
    in dimension d-1, sign)`` pairs, in the order the cell lists them.
    The constructor trusts its arguments.  ``from_json_dict`` checks a
    document as it numbers the cells, and the tests hold every builder
    to it: its output must load back unchanged.
    """

    def __init__(
        self, ids: list[list[str]], faces: list[list[tuple[tuple[int, int], ...]]]
    ) -> None:
        self.ids = ids
        self.faces = faces

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.ids))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * k for d, k in enumerate(self.f_vector()))

    def cells(self, d: int) -> list[tuple[tuple[int, int], ...]]:
        """The signed faces of the d-cells, ``faces[d]``."""
        return self.faces[d]

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
        """The complex a document describes, numbered in sorted-id order.
        Raise ValueError unless it is a regular complex: unique ids,
        dimensions from 0 up with no gap, no faces on a vertex, a
        nonempty boundary on every other cell, faces that exist one
        dimension down, signs in {-1, +1}, no repeated face, and a
        boundary of a boundary that vanishes.  Each cell is checked as
        it is numbered, in (dim, id) order, so its faces are already
        numbered and checked."""
        _check_format(doc, "complex")
        entries = doc["cells"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("cells must be a list of objects")
        if not entries:
            raise ValueError("complex has no cells")
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
        cells.sort(key=lambda c: (c[1], c[0]))
        dim_of: dict[str, int] = {}
        for cid, dim, _ in cells:
            if cid in dim_of:
                raise ValueError(f"duplicate cell id {cid!r}")
            dim_of[cid] = dim
        ids: list[list[str]] = []
        faces: list[list[tuple[tuple[int, int], ...]]] = []
        index: dict[str, int] = {}  # id -> its index within its dimension
        for cid, dim, listed in cells:
            if dim < 0:
                raise ValueError(f"cell {cid!r} has negative dimension")
            if dim == 0 and listed:
                raise ValueError(f"vertex {cid!r} must not list faces")
            resolved: dict[int, int] = {}  # face index -> sign, in document order
            for fid, sign in listed:
                fdim = dim_of.get(fid)
                if fdim is None:
                    raise ValueError(f"cell {cid!r} references unknown face {fid!r}")
                if fdim != dim - 1:
                    raise ValueError(
                        f"face {fid!r} of {cid!r} has dimension {fdim}, expected {dim - 1}"
                    )
                if sign not in (-1, 1):
                    raise ValueError(f"face sign of {fid!r} in {cid!r} must be -1 or +1")
                k = index[fid]
                if k in resolved:
                    raise ValueError(f"face {fid!r} repeated in cell {cid!r}")
                resolved[k] = sign
            if dim and not listed:  # a cell past a gap has no face to list
                raise ValueError(f"cell {cid!r} of dimension {dim} has no faces")
            acc: dict[int, int] = {}  # the boundary of the boundary
            for k, sign in resolved.items():
                for m, s in faces[dim - 1][k]:
                    acc[m] = acc.get(m, 0) + sign * s
            bad = [ids[dim - 2][m] for m, v in acc.items() if v]
            if bad:
                raise ValueError(f"boundary of boundary of {cid!r} is nonzero at {bad[0]!r}")
            if dim == len(ids):
                ids.append([])
                faces.append([])
            index[cid] = len(ids[dim])
            ids[dim].append(cid)
            faces[dim].append(tuple(resolved.items()))
        cx = RegularComplex(ids, faces)
        if "dims" in doc:
            message = "dims must be a list of integers"
            if not isinstance(doc["dims"], list):
                raise ValueError(message)
            if list(cx.f_vector()) != [_integer(k, message) for k in doc["dims"]]:
                raise ValueError("cell counts disagree with the dims header")
        return cx


class SimplicialComplex:
    """An abstract simplicial complex given by its maximal faces."""

    def __init__(self, maximal_faces: Iterable[Iterable[int]]) -> None:
        cleaned = {frozenset(map(int, f)) for f in maximal_faces}
        if frozenset() in cleaned:
            raise ValueError("empty face")
        if not cleaned:
            raise ValueError("complex has no faces")
        # drop faces contained in a strictly larger one; only faces of
        # greater cardinality can contain them, so the largest faces and
        # pure inputs skip this
        by_size: dict[int, list[frozenset[int]]] = {}
        for fs in cleaned:
            by_size.setdefault(len(fs), []).append(fs)
        sizes = sorted(by_size, reverse=True)
        larger = by_size[sizes[0]]
        kept = list(larger)
        for size in sizes[1:]:
            kept += [fs for fs in by_size[size] if not any(fs < g for g in larger)]
            larger = larger + by_size[size]
        self.maximal_faces = tuple(sorted(map(tuple, map(sorted, kept))))
        self._faces: Optional[dict[int, list[tuple[int, ...]]]] = None
        # d -> the d-simplices' face numbers, d + 1 each in combinations
        # order, filled in by faces()
        self._boundaries: dict[int, list[int]] = {}

    def faces(self) -> dict[int, list[tuple[int, ...]]]:
        """All faces grouped by dimension, each sorted lexicographically."""
        if self._faces is None:
            # a face is maximal or a face of a face one vertex larger, so
            # each dimension comes from the one above, and numbering it
            # numbers the boundaries above as well: each face of each
            # d-simplex, in combinations order, is looked up once and
            # enters at its position in that stream if it is new; the
            # sort of the dimension ranks those positions.  Faces are
            # sorted tuples, so their combinations are too.
            by_size: dict[int, list[tuple[int, ...]]] = {}
            for f in self.maximal_faces:
                by_size.setdefault(len(f), []).append(f)
            top = self.dim
            levels = {top: by_size[top + 1]}  # sorted, as maximal_faces is
            for d in range(top, 0, -1):
                seed = by_size.get(d, [])  # the maximal (d-1)-faces
                level = dict(zip(seed, count()))
                incidences = chain.from_iterable(map(combinations, levels[d], repeat(d)))
                first = list(map(level.setdefault, incidences, count(len(seed))))
                levels[d - 1] = below = sorted(level)
                rank = [0] * (len(seed) + len(first))  # stream position -> sorted index
                deque(map(rank.__setitem__, map(level.__getitem__, below), count()), maxlen=0)
                self._boundaries[d] = list(map(rank.__getitem__, first))
            self._faces = {d: levels[d] for d in range(top + 1)}
        return self._faces

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.maximal_faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.faces().values()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * k for d, k in enumerate(self.f_vector()))

    def cells(self, d: int) -> list[tuple[tuple[int, int], ...]]:
        """The d-simplices' signed faces, both dimensions in ``faces()``
        order, in the sorted-vertex orientation: the face dropping the
        i-th vertex enters with sign (-1)^i.  Read off the face numbers
        ``faces()`` records, a fresh list on each call."""
        faces = self.faces()
        if d == 0:
            return [()] * len(faces[0])
        # combinations drop the last vertex first, so the recorded face
        # numbers, read backwards, run from the last simplex to the
        # first, each from the face dropping its first vertex
        signs = [(-1) ** i for i in range(d + 1)]
        pairs = zip(reversed(self._boundaries[d]), cycle(signs))
        cells = list(zip(*[pairs] * (d + 1)))
        cells.reverse()
        return cells

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "maximal_faces": [list(f) for f in self.maximal_faces],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "SimplicialComplex":
        _check_format(doc, "complex")
        faces = doc["maximal_faces"]
        if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
            raise ValueError("maximal_faces must be a list of lists")
        message = "maximal_faces must be a list of lists of integers"
        return SimplicialComplex([_integer(v, message) for v in f] for f in faces)


def barycentric_subdivision(cx: "RegularComplex | SimplicialComplex") -> SimplicialComplex:
    """The order complex of the face poset: one vertex per cell, one
    maximal simplex per maximal chain of proper face relations.

    Reads only ``f_vector()`` and ``cells(d)``.  Vertices are numbered
    by dimension and then by the cell's index in ``cells(d)``: sorted-id
    order for a regular complex, ``faces()`` order for a simplicial one.
    The result is deterministic."""
    counts = cx.f_vector()
    offset = list(accumulate(counts, initial=0))
    faces = [cx.cells(d) for d in range(len(counts))]
    covered = {(d - 1, k) for d, cells in enumerate(faces) for c in cells for k, _ in c}
    chains: list[tuple[int, ...]] = []

    def descend(d: int, j: int, acc: list[int]) -> None:
        acc.append(offset[d] + j)
        if d == 0:  # vertex numbers fall with the dimension along the chain
            chains.append(tuple(reversed(acc)))
        for k, _ in faces[d][j]:
            descend(d - 1, k, acc)
        acc.pop()

    for d, count in enumerate(counts):
        for j in range(count):
            if (d, j) not in covered:
                descend(d, j, [])
    return SimplicialComplex(chains)


# -- homology ---------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]  # invariant factors > 1, per degree


def _coreduce(
    cx: "RegularComplex | SimplicialComplex",
) -> tuple[list[list[int]], list[list[tuple[int, int]]], list[list[list[int]]]]:
    """The coreduction matching of ``homology``: per dimension d the
    critical d-cells, the pairs ``(a, b)`` of a d-cell a matched with
    its face b, both in removal order, and ``cofaces[d][k]``, the
    (d+1)-cells on d-cell k.  Reads each ``cx.cells(d)`` once."""
    counts = cx.f_vector()
    top = len(counts) - 1
    # live[d][j]: how many faces of d-cell j are alive, and rest[d][j]
    # the sum of their indices, which is the last live face once only
    # one is left
    cofaces: list[list[list[int]]] = [[[] for _ in range(n)] for n in counts]
    live: list[list[int]] = [[0] * counts[0]]
    rest: list[list[int]] = [[0] * counts[0]]
    for d in range(1, top + 1):
        up, count, total = cofaces[d - 1], [], []
        for j, cell in enumerate(cx.cells(d)):
            t = 0
            for k, _ in cell:
                up[k].append(j)
                t += k
            count.append(len(cell))
            total.append(t)
        live.append(count)
        rest.append(total)
    # one more, empty, entry past the top, as remove() reads the row
    # above a top cell, and a top cell has no cofaces to index it with
    alive = [bytearray(b"\x01") * n for n in counts] + [bytearray()]
    live.append([])
    rest.append([])
    queue: deque[tuple[int, int]] = deque()

    def remove(d: int, j: int) -> None:
        alive[d][j] = 0
        above, count, total = alive[d + 1], live[d + 1], rest[d + 1]
        for i in cofaces[d][j]:
            count[i] -= 1
            total[i] -= j
            if count[i] == 1 and above[i]:
                queue.append((d + 1, i))

    critical: list[list[int]] = [[] for _ in counts]
    pairs: list[list[tuple[int, int]]] = [[] for _ in counts]
    d, j = 0, 0  # the lowest live cell is never below this one
    while d <= top:
        while queue:
            e, a = queue.popleft()
            if alive[e][a] and live[e][a] == 1:
                b = rest[e][a]  # the one live face
                pairs[e].append((a, b))
                remove(e, a)
                remove(e - 1, b)
        j = alive[d].find(1, j)
        if j < 0:
            d, j = d + 1, 0
        else:
            critical[d].append(j)
            remove(d, j)
    return critical, pairs, cofaces


def _chain(cell: Iterable[tuple[int, int]], known: dict[int, dict[int, int]],
           scale: int = 1) -> dict[int, int]:
    """scale (+-1) times the sum of the known chains of the cells in
    ``cell``, each weighted by its sign, without zero coefficients.  A
    single chain is shared when its factor is 1, as no chain is changed
    once made."""
    terms = [(s * scale, known[f]) for f, s in cell if f in known]
    if len(terms) == 1:
        s, img = terms[0]
        return img if s == 1 else {p: -v for p, v in img.items()}
    acc: dict[int, int] = {}
    for s, img in terms:
        for p, v in img.items():
            acc[p] = acc.get(p, 0) + s * v
    return {p: v for p, v in acc.items() if v}


def _image_columns(
    faces: Sequence[Sequence[tuple[int, int]]] | Mapping[int, Sequence[tuple[int, int]]],
    pairs: Sequence[tuple[int, int]],
    critical: Sequence[int],
    below: Sequence[int],
) -> list[Iterable[tuple[int, int]]]:
    """The Morse boundary of the critical d-cells ``critical`` on the
    critical (d-1)-cells ``below``, one column of ``(row, value)`` pairs
    without zeros per critical d-cell, from the images of the
    (d-1)-cells: ``faces`` maps a d-cell to its signed faces, as
    ``cells(d)`` does, and ``pairs`` lists the d-cells' pairs in
    removal order.  Run on the signed cofaces of the (d-1)-cells with
    the pairs reversed, it gives the transpose (see ``homology``)."""
    image = {c: {p: 1} for p, c in enumerate(below)}
    for a, b in pairs:
        cell = faces[a]
        sign = next(s for f, s in cell if f == b)
        img = _chain(cell, image, -sign)  # b has no image yet
        if img:
            image[b] = img
    return [_chain(faces[c], image).items() for c in critical]


def homology(cx: "RegularComplex | SimplicialComplex") -> HomologyResult:
    """Integer homology of the complex: in each degree the Betti number
    and the torsion invariant factors, read off ``cx.f_vector()`` and
    ``cx.cells(d)``.  The Betti numbers are those over the rationals too
    (universal coefficients).

    First an acyclic matching by coreductions (Mrozek & Batko,
    *Coreduction homology algorithm*, 2009) removes the cells in pairs.
    A queued cell with exactly one live face b is paired with b; both
    go, and the cofaces that are left with one live face are queued.
    When the queue runs dry, the lowest-indexed live cell of the lowest
    live dimension has no live face and is taken as critical; its
    cofaces are queued in turn.  Every pairing has incidence +-1, and a
    cell's other faces were all removed before it was paired, so a
    gradient path only ever steps to an earlier pair: the matching is
    acyclic, and the critical cells with the Morse boundary below form
    a chain complex homotopy equivalent to the whole one over Z
    (discrete Morse theory; Harker, Mischaikow, Mrozek & Nanda 2014).
    ``_coreduce`` reads each ``cx.cells(d)`` once for the matching (the
    coface lists, and each cell's count and index sum of live faces,
    which names the last one).

    The Morse boundary of degree d is computed only where there are
    critical cells in both d and d - 1, and only those degrees read
    ``cx.cells(d)`` again.  ``_image_columns`` builds it from images,
    chains on the critical (d-1)-cells.  A critical cell is its own
    image, the upper cell of a pair has none, and the lower cell b of a
    pair (a, b) has the image -[a:b] * sum of [a:f] * image(f) over the
    other faces f of a.  Each is computed once, in removal order, when
    those faces' images are known.  The boundary of a critical c is the
    sum of [c:f] * image(f) over its faces.  The memo holds chains on
    the critical cells of one side, so where there are fewer critical
    d-cells than (d-1)-cells the same routine runs on the coboundary:
    each (d-1)-cell's signed cofaces are taken as its faces, and each
    pair (a, b), read in reverse removal order, as the pair (b, a).
    The other cofaces of b left the matching after b or were matched
    upward, which gives them no chain, so in that order every chain the
    rule reads is known.  That is the image rule of the dual chain
    complex, whose gradient paths are the reversed ones, so it gives the
    transpose of the Morse boundary, with the same Smith form.  On the
    level-N surfaces the one critical triangle takes the coboundary,
    and the memo holds at most one entry per triangle.

    The matching has taken the free faces, so each Morse boundary goes
    to ``smith_normal_form`` as its nonzero support alone: the rows and
    columns that hold an entry.  The ``-v`` counters ``residual_rows``
    and ``residual_cols`` sum, over the degrees, the critical (d-1)- and
    d-cells in that support, whichever side was taken."""
    counts = cx.f_vector()
    top = len(counts) - 1
    critical, pairs, cofaces = _coreduce(cx)
    factors: list[tuple[int, ...]] = [() for _ in range(top + 2)]
    residual_rows = residual_cols = 0
    for d in range(top, 0, -1):
        if critical[d] and critical[d - 1]:
            cells = cx.cells(d)
            transpose = len(critical[d]) < len(critical[d - 1])
            if transpose:
                coboundary = {
                    k: [(x, s) for x in cofaces[d - 1][k] for f, s in cells[x] if f == k]
                    for k in chain((b for _, b in pairs[d]), critical[d - 1])
                }
                reverse = [(b, a) for a, b in reversed(pairs[d])]
                columns = _image_columns(coboundary, reverse, critical[d - 1], critical[d])
            else:
                columns = _image_columns(cells, pairs[d], critical[d], critical[d - 1])
            nonzero = [dict(column) for column in columns if column]
            rows = sorted(set().union(*nonzero))
            dense = [[column.get(r, 0) for column in nonzero] for r in rows]
            factors[d] = smith_normal_form(dense)
            shape = (len(rows), len(nonzero))
            lower, upper = shape[::-1] if transpose else shape
            residual_rows += lower
            residual_cols += upper
    obs.add(
        "homology",
        critical=sum(map(len, critical)),
        matched=sum(map(len, pairs)),
        residual_rows=residual_rows,
        residual_cols=residual_cols,
    )
    betti = tuple(
        len(critical[d]) - len(factors[d]) - len(factors[d + 1]) for d in range(top + 1)
    )
    torsion = tuple(
        tuple(f for f in factors[d + 1] if f > 1) for d in range(top + 1)
    )
    return HomologyResult(betti=betti, torsion=torsion)
