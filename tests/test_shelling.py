"""Shelling search and sphere certification.

Oracle: the literal closure condition — at each step the intersection
of the new facet's closure with the union of its predecessors' closures
must be exactly a nonempty union of closures of the new facet's
codimension-one faces.  This quadratic checker is the ground truth the
module's verifier and search results are compared against.

A second reference, ``reference_find_shelling``, is the depth-first
search without the incremental frontier: every level rescans and
re-sorts every facet and tries them in that order.  The module's search
must return the same result as it, order, attachments and node count
included.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vorocell import shelling
from vorocell.cells import SimplicialComplex, homology
from vorocell.shelling import (
    Shelling,
    ShellingResult,
    certify_sphere,
    find_shelling,
    verify_shelling,
)


# -- literal oracle -----------------------------------------------------------


def face_closure(face):
    """All subsets, including the empty face."""
    face = tuple(sorted(face))
    return {
        frozenset(c)
        for k in range(len(face) + 1)
        for c in itertools.combinations(face, k)
    }


def literal_shelling_check(ordering):
    prior = set()
    for j, f in enumerate(ordering):
        fs = frozenset(f)
        if j:
            inter = face_closure(fs) & prior
            ridges = [fs - {v} for v in fs]
            chosen = [r for r in ridges if face_closure(r) <= inter]
            union = set().union(*(face_closure(r) for r in chosen)) if chosen else set()
            if not chosen or inter != union:
                return False
        prior |= face_closure(fs)
    return True


def boundary_simplex(k):
    return SimplicialComplex(list(itertools.combinations(range(k + 2), k + 1)))


OCTAHEDRON = SimplicialComplex([
    tuple(2 * i + s for i, s in enumerate(signs))
    for signs in itertools.product((0, 1), repeat=3)
])

MOEBIUS = SimplicialComplex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])

RP2 = SimplicialComplex([
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
])


# -- rescanning reference search ---------------------------------------------------


class RescanState:
    """The search state with candidates found by a full rescan and sort."""

    def __init__(self, facets):
        self.facets = facets
        self.sorted_facets = [tuple(sorted(f)) for f in facets]
        self.ridge_to_facets = {}
        for i, f in enumerate(facets):
            for v in f:
                self.ridge_to_facets.setdefault(f - {v}, []).append(i)
        self.glue = [set() for _ in facets]
        self.used = [False] * len(facets)
        self.used_by_vertex = {}
        self.ridge_count = {}
        self.order = []

    def place(self, idx):
        f = self.facets[idx]
        self.used[idx] = True
        self.order.append(idx)
        for v in f:
            self.used_by_vertex.setdefault(v, set()).add(idx)
        glue_log = []
        for v in f:
            r = f - {v}
            c = self.ridge_count.get(r, 0)
            self.ridge_count[r] = c + 1
            if c == 0:
                for j in self.ridge_to_facets[r]:
                    if not self.used[j]:
                        w = next(iter(self.facets[j] - r))
                        if w not in self.glue[j]:
                            self.glue[j].add(w)
                            glue_log.append((j, w))
        return glue_log

    def unplace(self, idx, glue_log):
        f = self.facets[idx]
        for j, w in glue_log:
            self.glue[j].discard(w)
        for v in f:
            r = f - {v}
            self.ridge_count[r] -= 1
            if self.ridge_count[r] == 0:
                del self.ridge_count[r]
        for v in f:
            self.used_by_vertex[v].discard(idx)
        self.order.pop()
        self.used[idx] = False

    def is_valid_step(self, idx):
        if not self.order:
            return True
        glue = self.glue[idx]
        if not glue:
            return False
        pick = min(glue, key=lambda v: len(self.used_by_vertex.get(v, ())))
        return not any(glue <= self.facets[u] for u in self.used_by_vertex.get(pick, ()))

    def candidates(self):
        if not self.order:
            return sorted(range(len(self.facets)), key=lambda i: self.sorted_facets[i])
        live = [i for i in range(len(self.facets)) if not self.used[i] and self.glue[i]]
        live.sort(key=lambda i: (-len(self.glue[i]), self.sorted_facets[i]))
        return live

    def attachment(self, idx):
        f = self.facets[idx]
        return tuple(sorted(tuple(sorted(f - {v})) for v in self.glue[idx]))

    def shelled(self, nodes, attachments):
        ordering = tuple(self.sorted_facets[i] for i in self.order)
        return ShellingResult("shelled", Shelling(ordering, tuple(attachments)), nodes)


def reference_find_shelling(c, budget=shelling.DEFAULT_BUDGET):
    """Exhaustive chronological backtracking, each level taking the
    first valid facet of a full rescan."""
    state = RescanState(shelling._facet_list(c))
    nodes = 0
    # frames hold [candidates, next position, glue log of the placed facet]
    frames = [[state.candidates(), 0, None]]
    attachments = []
    while frames:
        frame = frames[-1]
        cands = frame[0]
        while frame[1] < len(cands):
            idx = cands[frame[1]]
            frame[1] += 1
            if state.is_valid_step(idx):
                if nodes >= budget:
                    return ShellingResult("unknown", None, nodes)
                nodes += 1
                attachments.append(state.attachment(idx))
                frame[2] = state.place(idx)
                if len(state.order) == len(state.facets):
                    return state.shelled(nodes, attachments)
                frames.append([state.candidates(), 0, None])
                break
        else:
            frames.pop()
            if frames:
                state.unplace(state.order[-1], frames[-1][2])
                attachments.pop()
    return ShellingResult("not-shellable", None, nodes)


# -- pseudomanifold test ---------------------------------------------------------


def is_pseudomanifold(c):
    """Every codimension-one face lies in exactly two maximal faces, read
    off the module's ridge table."""
    shelling._facet_list(c)  # pure, or ValueError
    return all(len(s) == 2 for s in shelling._ridge_table(c.maximal_faces)[2])


def test_pseudomanifold_detection():
    assert is_pseudomanifold(OCTAHEDRON)
    assert is_pseudomanifold(boundary_simplex(3))
    assert is_pseudomanifold(RP2)
    assert not is_pseudomanifold(SimplicialComplex([(0, 1, 2)]))  # free ridges
    assert not is_pseudomanifold(
        SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    )  # triple ridge


def test_pseudomanifold_rejects_impure():
    with pytest.raises(ValueError):
        is_pseudomanifold(SimplicialComplex([(0, 1, 2), (3, 4)]))


# -- search vs literal oracle -----------------------------------------------------


@pytest.mark.parametrize("k", range(0, 7))
def test_boundary_simplices_shell(k):
    c = boundary_simplex(k)
    res = find_shelling(c)
    assert res.status == "shelled"
    assert literal_shelling_check(res.shelling.ordering)
    assert verify_shelling(c, res.shelling.ordering)


def test_octahedron_and_subdivisions_shell():
    for c in (OCTAHEDRON, OCTAHEDRON.subdivide(), boundary_simplex(3).subdivide()):
        res = find_shelling(c)
        assert res.status == "shelled"
        assert literal_shelling_check(res.shelling.ordering)
        assert verify_shelling(c, res.shelling.ordering)


def test_verifier_agrees_with_oracle_on_random_orders():
    rng = random.Random(99)
    facets = list(OCTAHEDRON.maximal_faces)
    agree_true = agree_false = 0
    for _ in range(120):
        order = facets[:]
        rng.shuffle(order)
        expect = literal_shelling_check(order)
        assert verify_shelling(OCTAHEDRON, order) == expect
        agree_true += expect
        agree_false += not expect
    assert agree_true and agree_false  # both outcomes exercised


@given(st.permutations(list(boundary_simplex(2).maximal_faces)))
@settings(max_examples=24, deadline=None)
def test_verifier_matches_oracle_boundary_tetrahedron(order):
    assert verify_shelling(boundary_simplex(2), order) == literal_shelling_check(order)


def test_verifier_rejects_wrong_facet_sets():
    order = list(OCTAHEDRON.maximal_faces)
    assert not verify_shelling(OCTAHEDRON, order[:-1])
    assert not verify_shelling(OCTAHEDRON, order[:-1] + [order[0]])


def test_attachment_record_is_faithful():
    res = find_shelling(OCTAHEDRON)
    built = set()
    for step, (facet, attach) in enumerate(
        zip(res.shelling.ordering, res.shelling.attachments)
    ):
        fs = frozenset(facet)
        ridges = {fs - {v} for v in fs}
        if step == 0:
            assert attach == ()
        else:
            assert attach
            for r in attach:
                assert frozenset(r) in ridges
                assert frozenset(r) in built
        built |= ridges


# -- negative search results -------------------------------------------------------


def test_moebius_band_not_shellable():
    res = find_shelling(MOEBIUS)
    assert res.status == "not-shellable"


def test_projective_plane_not_shellable():
    res = find_shelling(RP2)
    assert res.status == "not-shellable"


def test_disjoint_facets_not_shellable():
    res = find_shelling(SimplicialComplex([(0, 1, 2), (3, 4, 5)]))
    assert res.status == "not-shellable"


def test_budget_exhaustion_is_unknown():
    res = find_shelling(OCTAHEDRON, budget=3)
    assert res.status == "unknown"
    assert res.shelling is None
    assert res.nodes_used <= 3


# -- certification ------------------------------------------------------------------


def test_certify_spheres_and_balls():
    assert certify_sphere(OCTAHEDRON).status == "sphere"
    assert certify_sphere(boundary_simplex(4)).status == "sphere"
    assert certify_sphere(SimplicialComplex([(0, 1, 2)])).status == "ball"
    assert certify_sphere(SimplicialComplex([(0, 1, 2), (1, 2, 3)])).status == "ball"


def test_certify_zero_dimensional():
    assert certify_sphere(SimplicialComplex([(0,), (1,)])).status == "sphere"
    assert certify_sphere(SimplicialComplex([(7,)])).status == "ball"
    three = SimplicialComplex([(0,), (1,), (2,)])
    assert certify_sphere(three).status == "not-pseudomanifold"


def test_certify_rejects_triple_ridge():
    c = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    res = certify_sphere(c)
    assert res.status == "not-pseudomanifold"
    assert "3 facets" in res.detail
    assert res.detail == "ridge [0, 1] lies in 3 facets"


def test_certify_unknown_cases():
    assert certify_sphere(RP2).status == "unknown"
    assert certify_sphere(OCTAHEDRON, budget=2).status == "unknown"


def test_sphere_verdicts_agree_with_homology():
    for c in (OCTAHEDRON, boundary_simplex(3), boundary_simplex(5)):
        cert = certify_sphere(c)
        assert cert.status == "sphere"
        betti = homology(c).betti
        d = c.dim
        expect = tuple(1 if i in (0, d) else 0 for i in range(d + 1))
        assert betti == expect


def test_relabeling_invariance():
    rng = random.Random(4)
    verts = sorted({v for f in OCTAHEDRON.maximal_faces for v in f})
    images = verts[:]
    rng.shuffle(images)
    relabel = dict(zip(verts, images))
    mapped = SimplicialComplex(
        [tuple(relabel[v] for v in f) for f in OCTAHEDRON.maximal_faces]
    )
    assert find_shelling(mapped).status == "shelled"
    assert certify_sphere(mapped).status == "sphere"
    shifted = SimplicialComplex(
        [tuple(v + 100 for v in f) for f in MOEBIUS.maximal_faces]
    )
    assert find_shelling(shifted).status == "not-shellable"


# -- the frontier against the rescanning reference ----------------------------------


def relabelled(c, rng):
    verts = sorted({v for f in c.maximal_faces for v in f})
    images = rng.sample(range(3 * len(verts)), len(verts))
    relabel = dict(zip(verts, images))
    return SimplicialComplex([tuple(relabel[v] for v in f) for f in c.maximal_faces])


SUBDIVIDED = {
    "S1": boundary_simplex(1).subdivide(),
    "S2": boundary_simplex(2).subdivide(),
    "S3": boundary_simplex(3).subdivide(),
    "octahedron": OCTAHEDRON.subdivide(),
    "B2": SimplicialComplex([(0, 1, 2)]).subdivide(),
    "B3": SimplicialComplex([(0, 1, 2, 3)]).subdivide(),
    "strip": SimplicialComplex([(0, 1, 2), (1, 2, 3), (2, 3, 4)]).subdivide(),
}


@pytest.mark.parametrize("name", sorted(SUBDIVIDED))
@pytest.mark.parametrize("seed", range(4))
def test_frontier_matches_rescan_on_relabelled_spheres_and_balls(name, seed):
    c = relabelled(SUBDIVIDED[name], random.Random(f"{name}:{seed}"))
    res = find_shelling(c)
    assert res.status == "shelled"
    assert res == reference_find_shelling(c)


# two shellable complexes, found by a random search, on which the first
# descent gets stuck, so that only backtracking shells them
STUCK_GREEDY = SimplicialComplex([
    (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5), (1, 2, 3),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
])
DEEP_BACKTRACK = SimplicialComplex([
    (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 3, 4), (0, 4, 5), (0, 4, 6), (1, 2, 3),
    (1, 4, 6), (2, 3, 5), (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 6), (3, 5, 6),
])


@pytest.mark.parametrize(
    "c",
    [OCTAHEDRON, MOEBIUS, RP2, SimplicialComplex([(0, 1, 2), (3, 4, 5)]),
     STUCK_GREEDY, DEEP_BACKTRACK],
    ids=["octahedron", "moebius", "rp2", "disjoint", "stuck-greedy", "deep-backtrack"],
)
def test_frontier_matches_rescan_through_restart_and_backtracking(c):
    assert find_shelling(c) == reference_find_shelling(c)


@pytest.mark.parametrize(
    "c, status, nodes",
    [
        (STUCK_GREEDY, "shelled", 11),
        (DEEP_BACKTRACK, "shelled", 31),
        (MOEBIUS, "not-shellable", 35),
        (RP2, "not-shellable", 760),
        (SimplicialComplex([(0, 1, 2), (3, 4, 5)]), "not-shellable", 2),
    ],
    ids=["stuck-greedy", "deep-backtrack", "moebius", "rp2", "disjoint"],
)
def test_backtracking_resumes_without_redescending(c, status, nodes):
    """A stuck first descent backtracks in place: no node is spent
    replaying or re-descending a path already searched."""
    res = find_shelling(c)
    assert (res.status, res.nodes_used) == (status, nodes)


@pytest.mark.parametrize(
    "c", [RP2, STUCK_GREEDY, DEEP_BACKTRACK], ids=["rp2", "stuck-greedy", "deep-backtrack"]
)
def test_snapshot_includes_parked_facets(c):
    """Where the first descent gets stuck, every live facet is parked,
    and a snapshot still lists them all, in the rescan's order.  The
    search takes its snapshots just after ``unplace`` has moved the
    parked entries back onto the heap, so this checks ``candidates``
    directly."""
    facets = shelling._facet_list(c)
    state, ref = shelling._SearchState(facets), RescanState(facets)
    while (idx := state.next_step()) is not None:
        state.place(idx)
        ref.place(idx)
    assert state.parked
    assert not any(state.is_valid_step(entry[-1]) for entry in state.parked)
    assert state.candidates() == ref.candidates()


@pytest.mark.parametrize("budget", range(1, 9))
def test_frontier_matches_rescan_at_every_budget(budget):
    assert find_shelling(OCTAHEDRON, budget) == reference_find_shelling(OCTAHEDRON, budget)


@given(
    st.lists(
        st.sampled_from(list(itertools.combinations(range(7), 3))),
        min_size=1,
        max_size=10,
        unique=True,
    ),
    st.integers(1, 400),
)
@settings(max_examples=60, deadline=None)
def test_frontier_matches_rescan_on_random_complexes(faces, budget):
    c = SimplicialComplex(faces)
    assert find_shelling(c, budget) == reference_find_shelling(c, budget)


@pytest.mark.parametrize(
    "c, facets",
    [(boundary_simplex(3).subdivide(), 120), (OCTAHEDRON.subdivide().subdivide(), 288)],
    ids=["subdivided-boundary-4-simplex", "twice-subdivided-octahedron"],
)
def test_frontier_matches_rescan_on_larger_spheres(c, facets):
    """The ridge table and the frontier against the rescan, on spheres
    far larger than the random complexes reach."""
    assert len(c.maximal_faces) == facets
    res = find_shelling(c)
    assert res.status == "shelled"
    assert res == reference_find_shelling(c)


def test_certify_rejects_an_order_that_fails_the_check(monkeypatch):
    order = list(OCTAHEDRON.maximal_faces)  # (0, 2, 4) first, (1, 3, 5) last
    order.insert(1, order.pop())  # two disjoint facets in a row
    assert not verify_shelling(OCTAHEDRON, order)
    broken = ShellingResult("shelled", Shelling(tuple(order), ((),) * 8), 8)
    monkeypatch.setattr(shelling, "find_shelling", lambda c, budget: broken)
    cert = certify_sphere(OCTAHEDRON)
    assert (cert.status, cert.shelling, cert.detail, cert.nodes_used) == (
        "unknown", None, "shelling failed its independent check", 8
    )


def test_certify_builds_one_ridge_table(monkeypatch):
    """The ridge degrees and the search read one table."""
    built = []
    table = shelling._ridge_table
    monkeypatch.setattr(shelling, "_ridge_table", lambda facets: built.append(1) or table(facets))
    assert certify_sphere(OCTAHEDRON.subdivide()).status == "sphere"
    assert len(built) == 1
    built.clear()
    assert certify_sphere(SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])).status == (
        "not-pseudomanifold"
    )
    assert len(built) == 1
