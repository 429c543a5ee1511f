"""Shellability search and sphere certification for pure simplicial
complexes.

A shelling is an ordering of the maximal faces in which each new face
meets the union of its predecessors in a nonempty union of its own
codimension-one faces.  Joined with the condition that every
codimension-one face lies in exactly two maximal faces, a shelling
certifies the complex is a sphere; with boundary present it certifies
a ball.  The search is depth first, most-glued facet first, with
chronological backtracking under a node budget, so "unknown" is an
honest possible outcome distinct from "not shellable" (which only an
exhausted search may report).

Ridges are numbered once per facet list, as integers, by
``_ridge_table``: each facet's ridge numbers, the k-th one dropping its
k-th vertex, and each ridge's ``(facet, opposite vertex)`` pairs.  Ridge
degrees, the search's ridge counts and its attachments are read off that
table, with no set built per ridge.  ``verify_shelling`` replays the
definition with a ridge set of its own, so the check does not share the
search's data.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from . import obs
from .cells import SimplicialComplex

DEFAULT_BUDGET = 10_000_000


def _facet_list(c: SimplicialComplex) -> list[frozenset[int]]:
    facets = [frozenset(f) for f in c.maximal_faces]
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        raise ValueError(f"complex is not pure: facet sizes {sorted(sizes)}")
    return facets


def _ridge_table(
    facets: Sequence[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[list[int]], list[list[tuple[int, int]]]]:
    """Number the ridges of sorted facets: ``(ridges, facet_ridges,
    sides)``.  ``ridges[r]`` is ridge r as a sorted tuple,
    ``facet_ridges[i][k]`` the number of facet i's ridge without its
    k-th vertex, and ``sides[r]`` the ``(facet, opposite vertex)`` pairs
    of ridge r, by facet.  A single-vertex facet has the empty ridge."""
    number: dict[tuple[int, ...], int] = {}
    facet_ridges: list[list[int]] = []
    sides: list[list[tuple[int, int]]] = []
    for i, f in enumerate(facets):
        row = []
        # combinations drop the last vertex first
        for v, ridge in zip(reversed(f), combinations(f, len(f) - 1)):
            r = number.setdefault(ridge, len(sides))
            if r == len(sides):
                sides.append([])
            sides[r].append((i, v))
            row.append(r)
        row.reverse()
        facet_ridges.append(row)
    return list(number), facet_ridges, sides


@dataclass(frozen=True)
class Shelling:
    """A shelling order with its per-step attachment record.

    ``attachments[j]`` lists the codimension-one faces along which the
    j-th facet is glued to the union of its predecessors; it is empty
    only for j = 0.
    """

    ordering: tuple[tuple[int, ...], ...]
    attachments: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class ShellingResult:
    status: str  # "shelled" | "not-shellable" | "unknown"
    shelling: Optional[Shelling]
    nodes_used: int


class _SearchState:
    """Incremental bookkeeping for the shelling search.

    The ridges are the integers of ``_ridge_table`` on the sorted facets,
    and ``ridge_count[r]`` is how many placed facets contain ridge r, so
    ``place`` and ``unplace`` walk a facet's ridge numbers and build no
    set.  ``glue[i]`` holds, for the unused facet i, the vertices whose
    opposite ridge is already present in the built part; a facet is a
    legal next step iff that set is nonempty and no used facet contains
    all of it.  The glue sets and the facets, as frozensets, stay sets,
    for that containment test.

    The facets come in ``maximal_faces`` order, which is sorted.  The
    frontier is a lazy heap of ``(-len(glue[i]), i)`` entries, with a
    ``parked`` list beside it.  Every live facet -- unused, with
    nonempty glue -- has an entry carrying its current key either on
    the heap or parked, and the parked ones are invalid steps.
    ``place`` pushes a fresh entry for every facet in its glue log;
    ``unplace`` does the same, plus one for the facet it returns to the
    pool, and moves the parked entries back onto the heap.  An entry
    ``next_step`` pops and finds invalid is parked: while the search
    only places facets, the used facet containing its glue stays used,
    so it stays invalid until its glue grows, and then ``place`` pushes
    it again.  Entries of used facets, with an outdated glue size, or
    repeating the entry just popped are stale and dropped when popped.
    Popping in heap order therefore visits the live facets most-glued
    first, ties broken by index, which is sorted-facet order: the order
    a full rescan and sort would give.  A step costs the entries it
    pops instead of a pass over all facets.  A level of the search
    descends by popping from the heap (``next_step``) and, once
    backtracked into, resumes from a sorted snapshot of the heap and
    the parked entries (``candidates``).  With nothing placed, every
    facet is a legal start, in index order.
    """

    def __init__(self, facets: list[frozenset[int]]) -> None:
        self.facets = facets
        self.sorted_facets = [tuple(sorted(f)) for f in facets]
        self.ridges, self.facet_ridges, self.sides = _ridge_table(self.sorted_facets)
        self.glue: list[set[int]] = [set() for _ in facets]
        self.used: list[bool] = [False] * len(facets)
        self.used_by_vertex: dict[int, set[int]] = {}
        self.ridge_count: list[int] = [0] * len(self.ridges)
        self.order: list[int] = []
        self.frontier: list[tuple[int, int]] = []
        self.parked: list[tuple[int, int]] = []

    def _push(self, j: int) -> None:
        glue = self.glue[j]
        if glue and not self.used[j]:
            heapq.heappush(self.frontier, (-len(glue), j))

    def _is_current(self, entry: tuple[int, int]) -> bool:
        j = entry[1]
        return not self.used[j] and len(self.glue[j]) == -entry[0] > 0

    def place(self, idx: int) -> list[tuple[int, int]]:
        self.used[idx] = True
        self.order.append(idx)
        for v in self.sorted_facets[idx]:
            self.used_by_vertex.setdefault(v, set()).add(idx)
        count, used, glue = self.ridge_count, self.used, self.glue
        glue_log: list[tuple[int, int]] = []
        for r in self.facet_ridges[idx]:
            count[r] += 1
            if count[r] == 1:  # a new ridge glues its unused facets
                for j, w in self.sides[r]:
                    if not used[j]:
                        glue[j].add(w)
                        glue_log.append((j, w))
        for j in {j for j, _ in glue_log}:
            self._push(j)
        return glue_log

    def unplace(self, idx: int, glue_log: list[tuple[int, int]]) -> None:
        for j, w in glue_log:
            self.glue[j].discard(w)
        count = self.ridge_count
        for r in self.facet_ridges[idx]:
            count[r] -= 1
        for v in self.sorted_facets[idx]:
            self.used_by_vertex[v].discard(idx)
        self.order.pop()
        self.used[idx] = False
        for entry in self.parked:
            heapq.heappush(self.frontier, entry)
        self.parked = []
        for j in {j for j, _ in glue_log} | {idx}:
            self._push(j)

    def is_valid_step(self, idx: int) -> bool:
        if not self.order:
            return True
        glue = self.glue[idx]
        if not glue:
            return False
        # invalid iff some used facet contains the whole glue set
        pick = min(glue, key=lambda v: len(self.used_by_vertex.get(v, ())))
        for u in self.used_by_vertex.get(pick, ()):
            if glue <= self.facets[u]:
                return False
        return True

    def next_step(self) -> Optional[int]:
        """The first valid facet in frontier order, or None; the caller
        places it.  The invalid current entries popped on the way are
        parked."""
        if not self.order:
            return 0
        heap = self.frontier
        last = None
        while heap:
            entry = heapq.heappop(heap)
            if entry == last or not self._is_current(entry):
                continue
            last = entry
            if self.is_valid_step(entry[1]):
                return entry[1]
            self.parked.append(entry)
        return None

    def candidates(self) -> list[int]:
        """Every live facet in frontier order; compacts the heap and the
        parked entries to them, on the heap."""
        if not self.order:
            return list(range(len(self.facets)))
        live = sorted(set(filter(self._is_current, self.frontier + self.parked)))
        self.frontier = live  # a sorted list is a heap
        self.parked = []
        return [entry[1] for entry in live]

    def attachment(self, idx: int) -> tuple[tuple[int, ...], ...]:
        glue, ridges = self.glue[idx], self.ridges
        # dropping a later vertex of a sorted facet leaves a smaller ridge
        pairs = zip(reversed(self.sorted_facets[idx]), reversed(self.facet_ridges[idx]))
        return tuple(ridges[r] for v, r in pairs if v in glue)


def find_shelling(
    c: "SimplicialComplex | _SearchState", budget: int = DEFAULT_BUDGET
) -> ShellingResult:
    """Search for a shelling depth first, placing the most-glued valid
    facet first and backtracking chronologically.

    A level descends by the frontier's first valid facet.  Backtracking
    into it restores the state it started from, so its first return
    takes a sorted snapshot of the frontier and resumes after the facet
    it had placed, every earlier one being invalid there.
    "not-shellable" is reported only when the full search space was
    exhausted inside the budget; running out of budget yields
    "unknown".

    ``c`` may also be a fresh ``_SearchState`` of a complex's facets:
    ``certify_sphere`` passes the one whose ridge table it has read, so
    the table is built once per certificate.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    state = c if isinstance(c, _SearchState) else _SearchState(_facet_list(c))
    facets = state.facets
    nodes = 0
    # one frame per placed facet: (facet, glue log, attachment, its
    # level's candidate snapshot or None, its position in the snapshot)
    frames: list[tuple[int, list, tuple, Optional[list[int]], int]] = []
    cands: Optional[list[int]] = None
    pos = 0
    while True:
        if cands is None:
            idx = state.next_step()
        else:
            idx = None
            for pos in range(pos + 1, len(cands)):
                if state.is_valid_step(cands[pos]):
                    idx = cands[pos]
                    break
        if idx is None:
            if not frames:
                result = ShellingResult("not-shellable", None, nodes)
                break
            idx, glue_log, _, cands, pos = frames.pop()
            state.unplace(idx, glue_log)
            if cands is None:
                cands = state.candidates()
                pos = cands.index(idx)
            continue
        if nodes >= budget:
            result = ShellingResult("unknown", None, nodes)
            break
        nodes += 1
        attach = state.attachment(idx)
        frames.append((idx, state.place(idx), attach, cands, pos))
        if len(frames) == len(facets):
            ordering = tuple(state.sorted_facets[i] for i in state.order)
            attachments = tuple(frame[2] for frame in frames)
            result = ShellingResult("shelled", Shelling(ordering, attachments), nodes)
            break
        cands = None
    obs.add("shelling", nodes=nodes)
    return result


def verify_shelling(c: SimplicialComplex, ordering: Sequence[Sequence[int]]) -> bool:
    """Check the shelling condition from scratch for a given order.

    Independent of the search: replays the definition directly, on
    sorted tuples and a ridge set of its own — each facet after the
    first must meet the union of its predecessors in a nonempty union of
    its own codimension-one faces.
    """
    _facet_list(c)  # pure, or ValueError
    given = [tuple(sorted(f)) for f in ordering]
    if sorted(given) != list(c.maximal_faces) or len(set(given)) != len(given):
        return False
    built_ridges: set[tuple[int, ...]] = set()
    used_by_vertex: dict[int, list[frozenset[int]]] = {}
    for j, f in enumerate(given):
        ridges = [f[:k] + f[k + 1 :] for k in range(len(f))]  # the k-th drops f[k]
        if j > 0:
            glue = {v for v, r in zip(f, ridges) if r in built_ridges}
            if not glue:
                return False
            pick = min(glue, key=lambda v: len(used_by_vertex.get(v, ())))
            for g in used_by_vertex.get(pick, ()):
                if glue <= g:
                    return False
        built_ridges.update(ridges)
        fs = frozenset(f)
        for v in f:
            used_by_vertex.setdefault(v, []).append(fs)
    return True


@dataclass(frozen=True)
class SphereCertificate:
    status: str  # "sphere" | "ball" | "unknown" | "not-pseudomanifold"
    shelling: Optional[Shelling]
    detail: str
    nodes_used: int


def certify_sphere(c: SimplicialComplex, budget: int = DEFAULT_BUDGET) -> SphereCertificate:
    """Combine ridge counting with a shelling search.

    A shelled complex in which every codimension-one face lies in
    exactly two facets is a sphere; with free ridges present it is a
    ball.  A ridge in three or more facets rules both out; a failed or
    exhausted search leaves the verdict honestly unknown.  The order the
    search found is replayed by ``verify_shelling`` before either
    verdict is given, and one that fails the replay is reported as
    unknown.
    """
    try:
        state = _SearchState(_facet_list(c))
    except ValueError as e:
        return SphereCertificate("not-pseudomanifold", None, str(e), 0)
    sides = state.sides  # the search reads the same ridge table
    worst = max(map(len, sides))
    if worst > 2:
        ridge = list(min(r for r, s in zip(state.ridges, sides) if len(s) > 2))
        return SphereCertificate(
            "not-pseudomanifold",
            None,
            f"ridge {ridge} lies in {worst} facets",
            0,
        )
    result = find_shelling(state, budget)
    if result.status != "shelled":
        reason = (
            "search space exhausted without a shelling"
            if result.status == "not-shellable"
            else "node budget exhausted"
        )
        return SphereCertificate("unknown", None, reason, result.nodes_used)
    if not verify_shelling(c, result.shelling.ordering):
        return SphereCertificate(
            "unknown", None, "shelling failed its independent check", result.nodes_used
        )
    boundary = sum(1 for s in sides if len(s) == 1)
    if boundary:
        return SphereCertificate(
            "ball",
            result.shelling,
            f"shelled; {boundary} boundary ridges",
            result.nodes_used,
        )
    return SphereCertificate(
        "sphere",
        result.shelling,
        "shelled; every ridge lies in exactly two facets",
        result.nodes_used,
    )
