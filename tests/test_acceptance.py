"""Acceptance gate.

One test per shipped criterion, each marked ``criterion(num, ...)`` so
the terminal summary prints a single PASS/FAIL line per criterion (see
conftest).  Oracles used here are independent of the modules under
test: brute-force group orders, LCF constructions of the reference
graphs with a from-scratch isomorphism search, and literal arithmetic
on published counts.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

from vorocell.cells import SimplicialComplex, homology
from vorocell.linalg import SymMatrix, mat_mul, transpose
from vorocell.parabolic import (
    building_quotient,
    chamber_face_label,
    langlands_dims,
    proper_partitions,
    walls_of_face,
)
from vorocell.perfect import enumerate_perfect_forms
from vorocell.reduction import voronoi_reduce
from vorocell.shelling import certify_sphere, verify_shelling
from vorocell.sp4 import default_model, perturbed, verify_model

CLI = [sys.executable, "-m", "vorocell.cli"]
REPO_ROOT = Path(__file__).resolve().parent.parent

NODE_BUDGET = 10_000_000
FIVE_MINUTES = 300.0
THIRTY_SECONDS = 30.0


# -- graph oracles: reference solids built by LCF notation, matched by a
# -- from-scratch backtracking isomorphism search ---------------------------------


def complete_graph(n):
    return {i: set(range(n)) - {i} for i in range(n)}


def lcf_graph(shifts, repeats):
    """Cubic Hamiltonian graph from its LCF code: an n-cycle plus the
    chord i -> i + shift for each position."""
    n = len(shifts) * repeats
    adj = {i: set() for i in range(n)}
    for i in range(n):
        adj[i].add((i + 1) % n)
        adj[(i + 1) % n].add(i)
    for i, s in enumerate(list(shifts) * repeats):
        adj[i].add((i + s) % n)
        adj[(i + s) % n].add(i)
    return adj


def girth(adj):
    best = None
    for start in adj:
        dist = {start: 0}
        parent = {start: None}
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    cycle = dist[v] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def isomorphic(a, b):
    """Exact graph isomorphism by backtracking in BFS order."""
    if len(a) != len(b):
        return False
    if sorted(len(s) for s in a.values()) != sorted(len(s) for s in b.values()):
        return False
    order = []
    seen = set()
    for root in a:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(a[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    mapping = {}
    used = set()
    bverts = sorted(b)

    def extend(k):
        if k == len(order):
            return True
        v = order[k]
        for w in bverts:
            if w in used or len(b[w]) != len(a[v]):
                continue
            if all((u in a[v]) == (mu in b[w]) for u, mu in mapping.items()):
                mapping[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)


def test_graph_oracle_sanity():
    cube = lcf_graph([3, -3], 4)
    wagner = lcf_graph([4], 8)
    dodeca = lcf_graph([10, 7, 4, -4, -7, 10, -4, 7, -7, 4], 2)
    assert girth(complete_graph(4)) == 3
    assert (len(cube), girth(cube)) == (8, 4)
    assert (len(dodeca), girth(dodeca)) == (20, 5)
    assert all(len(s) == 3 for s in cube.values())
    assert all(len(s) == 3 for s in dodeca.values())
    assert isomorphic(cube, cube)
    assert not isomorphic(cube, wagner)  # same size and degrees, different graphs


def brute_psl2_order(n):
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1:
                        count += 1
    return count // 2


def graph_from_complex_doc(doc):
    adj = {c["id"]: set() for c in doc["cells"] if c["dim"] == 0}
    edges = 0
    for cell in doc["cells"]:
        if cell["dim"] == 1:
            edges += 1
            u, v = (f["id"] for f in cell["faces"])
            adj[u].add(v)
            adj[v].add(u)
    # simple graph: no multi-edges hiding behind the sets
    assert sum(len(s) for s in adj.values()) == 2 * edges
    return adj


def boundary_simplex(k):
    return SimplicialComplex(list(itertools.combinations(range(k + 2), k + 1)))


def sphere_betti(d):
    if d == 0:
        return (2,)
    return tuple(1 if i in (0, d) else 0 for i in range(d + 1))


# -- shared CLI recorder: criterion 9 replays every call made here ------------------


@dataclass
class CliBox:
    root: Path
    calls: list = field(default_factory=list)


@pytest.fixture(scope="module")
def box(tmp_path_factory):
    return CliBox(tmp_path_factory.mktemp("gate"))


def run_cli(box, *args, emits=()):
    argv = [str(a) for a in args]
    result = subprocess.run(CLI + argv, capture_output=True, timeout=600)
    assert result.returncode == 0, result.stderr.decode()
    emitted = tuple((str(p), Path(p).read_bytes()) for p in emits)
    box.calls.append((tuple(argv), result.stdout, emitted))
    return json.loads(result.stdout)


# -- criteria -----------------------------------------------------------------


@pytest.mark.criterion(1, "perfect-form classes: 1, 1, 2, 3 for n = 2..5")
def test_criterion_1_enumeration(box):
    expected = {2: 1, 3: 1, 4: 2, 5: 3}
    for n, want in expected.items():
        out = box.root / f"cat{n}.json"
        started = time.monotonic()
        doc = run_cli(
            box, "perfect", "enumerate", "--n", n, "--out", out, emits=[out]
        )
        elapsed = time.monotonic() - started
        assert doc["classes"] == want, (n, doc["classes"])
        assert doc["complete"] is True
        assert elapsed <= FIVE_MINUTES, (n, elapsed)
    # the dimension-8 count (10916 classes) is a documented long-running
    # target, not a gate; hold the documentation to that
    assert "10916" in (REPO_ROOT / "README.md").read_text()


@pytest.mark.criterion(2, "200 random 2x2 reductions; exact unimodular equivariance")
def test_criterion_2_reduction(box):
    started = time.monotonic()
    catalog = enumerate_perfect_forms(2)
    assert len(catalog.records) == 1

    rng = random.Random(20260815)
    forms = []
    while len(forms) < 200:
        a = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        d = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        b = Fraction(rng.randint(-100, 100), rng.randint(1, 10))
        if a * d > b * b:
            forms.append(SymMatrix(((a, b), (b, d))))
    results = [voronoi_reduce(x, catalog) for x in forms]
    assert all(res.class_index == 0 for res in results)

    def conjugate_rows(m, u):
        return SymMatrix(
            mat_mul(mat_mul(transpose(u), [list(r) for r in m.rows]), u)
        ).rows

    for i in range(20):
        u = [[1, 0], [0, 1]]
        for _ in range(6):
            r1, r2 = rng.sample(range(2), 2)
            c = rng.choice([-2, -1, 1, 2])
            for k in range(2):
                u[r1][k] += c * u[r2][k]
        moved = SymMatrix(conjugate_rows(forms[i], u))
        res = voronoi_reduce(moved, catalog)
        assert res.class_index == results[i].class_index
        # support correspondence: the supporting rays transport by u
        assert {conjugate_rows(m, u) for m in results[i].translated_rays(catalog)} == {
            m.rows for m in res.translated_rays(catalog)
        }
    elapsed = time.monotonic() - started
    assert elapsed <= THIRTY_SECONDS, elapsed

    # one command-line reduction on record
    form_path = box.root / "form.json"
    form_path.write_text(json.dumps({"n": 2, "rows": [["4", "1"], ["1", "3"]]}))
    doc = run_cli(
        box, "reduce", "--form", form_path, "--catalog", box.root / "cat2.json"
    )
    assert doc["class_index"] == 0


@pytest.mark.criterion(3, "level 3/4/5 quotients are the three Platonic solids")
def test_criterion_3_platonic(box):
    targets = {
        3: ((4, 6, 4), complete_graph(4)),
        4: ((8, 12, 6), lcf_graph([3, -3], 4)),
        5: ((20, 30, 12), lcf_graph([10, 7, 4, -4, -7, 10, -4, 7, -7, 4], 2)),
    }
    for level, (counts, target) in targets.items():
        doc = run_cli(box, "sl2", "--level", level)
        assert (doc["triangles"], doc["edges"], doc["cusps"]) == counts
        dual_path = box.root / f"dual{level}.json"
        run_cli(box, "sl2", "--level", level, "--emit", dual_path, "--dual",
                emits=[dual_path])
        dual = graph_from_complex_doc(json.loads(dual_path.read_text()))
        assert isomorphic(dual, target), f"level {level} dual graph mismatch"


@pytest.mark.criterion(4, "rank H1(dual) = 2g + c - 1 and H2 = 0 for 3 <= N <= 13")
def test_criterion_4_cohomology(box):
    for level in range(3, 14):
        # independent counting: group order by brute scan, then Euler
        order = brute_psl2_order(level)
        triangles, edges, cusps = order // 3, order // 2, order // level
        chi = cusps - edges + triangles
        assert chi % 2 == 0
        genus = (2 - chi) // 2
        expected_h1 = 2 * genus + cusps - 1

        doc = run_cli(box, "sl2", "--level", level)
        assert (doc["triangles"], doc["edges"], doc["cusps"]) == (
            triangles, edges, cusps,
        )
        assert doc["genus"] == genus
        assert doc["h1_rank"] == expected_h1
        assert doc["vcd_vanishing"] is True

        dual_path = box.root / f"c4dual{level}.json"
        run_cli(box, "sl2", "--level", level, "--emit", dual_path, "--dual",
                emits=[dual_path])
        betti = run_cli(box, "homology", "--complex", dual_path)["betti"]
        assert betti == [1, expected_h1]
        assert len(betti) == 2  # nothing above degree one


@pytest.mark.criterion(5, "genus within [0.5, 1.5] of N^3/24 for N in {11, 13}")
def test_criterion_5_genus_ratio(box):
    ratios = {}
    for level in (11, 13):
        doc = run_cli(box, "sl2", "--level", level)
        ratio = Fraction(24 * doc["genus"], level ** 3)
        assert Fraction(doc["genus_ratio"]) == ratio
        ratios[level] = ratio
    outside = {
        level: str(q)
        for level, q in ratios.items()
        if not Fraction(1, 2) <= q <= Fraction(3, 2)
    }
    assert not outside, f"genus ratio outside [1/2, 3/2]: {outside}"


@pytest.mark.criterion(
    6, "shelling certifies every sphere; 40320-facet S6, twice-subdivided S3 in budget"
)
def test_criterion_6_shelling(box):
    # boundaries of simplices and the octahedron, each also subdivided;
    # the largest is the subdivided boundary of the 7-simplex, an S6
    # with 8 * 7! = 40320 facets
    small = [boundary_simplex(k) for k in range(1, 7)]
    small.append(SimplicialComplex([
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=3)
    ]))
    for base in list(small):
        small.append(base.subdivide())
    for cx in small:
        cert = certify_sphere(cx)
        assert cert.status == "sphere", (cx.f_vector(), cert.status, cert.detail)
        assert cert.nodes_used <= NODE_BUDGET
        assert verify_shelling(cx, cert.shelling.ordering)
        result = homology(cx)
        assert result.betti == sphere_betti(cx.dim)
        assert all(not t for t in result.torsion)

    # twice-subdivided boundary of the 4-dimensional cross-polytope, a
    # 3-sphere with 9216 facets and 40256 faces
    big = SimplicialComplex([
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=4)
    ]).subdivide().subdivide()
    assert sum(len(v) for v in big.faces().values()) >= 20000
    cert = certify_sphere(big)
    assert cert.status == "sphere"
    assert cert.nodes_used <= NODE_BUDGET
    assert verify_shelling(big, cert.shelling.ordering)
    result = homology(big)
    assert result.betti == sphere_betti(3)
    assert all(not t for t in result.torsion)

    # one certified run through the command line, on record
    oct_path = box.root / "octahedron.json"
    oct_path.write_text(json.dumps(small[6].to_json_dict()))
    doc = run_cli(box, "shell", "--complex", oct_path)
    assert doc["status"] == "sphere"


@pytest.mark.criterion(7, "every 4-cell accounting identity exact; controls fail")
def test_criterion_7_sp4(box):
    # the four headline identities, by hand
    assert 76 - 216 + 180 - 40 == 0
    assert 4 * 24 + 4 * 26 + 32 * 5 == 360 == 2 * 180
    assert 4 * 24 - 24 == 72 and 72 + 4 == 76
    assert 4 * 2 + 4 * 2 + 32 * 3 == 112

    report = verify_model()
    assert report.ok
    assert all(i.computed == i.expected for i in report.identities)

    model = default_model()
    v, e, f2, f3 = model.f_vector
    controls = [
        perturbed(model, f_vector=(v + 1, e, f2, f3)),
        perturbed(model, facet_counts={"crystal": 0, "vertebra": 4, "pyramid": 36}),
        perturbed(model, cells_through={"crystal": 3, "vertebra": 3, "pyramid": 3}),
        perturbed(model, stated_neighbors=113),
        perturbed(model, chain_vertices=71),
    ]
    for bad in controls:
        assert not verify_model(bad).ok

    doc = run_cli(box, "sp4", "verify")
    assert doc["pass"] is True


@pytest.mark.criterion(8, "7 partitions of 4; 2-simplex quotient; exact dimensions")
def test_criterion_8_parabolic(box):
    partitions = proper_partitions(4)
    assert len(partitions) == 7
    assert {p.label() for p in partitions} == {
        "1111", "211", "121", "112", "31", "22", "13",
    }

    quotient = building_quotient(4)
    by_dim = {}
    for simplex in quotient.labeled_simplices():
        by_dim[len(simplex) - 1] = by_dim.get(len(simplex) - 1, 0) + 1
    assert by_dim == {0: 3, 1: 3, 2: 1}  # face poset of a 2-simplex

    for n in range(2, 9):
        for p in proper_partitions(n):
            dims = langlands_dims(p)
            assert (
                dims.dim_split_center + dims.dim_semisimple
                == n * n - 1 - 2 * dims.dim_unipotent
            )

    # chamber labeling is a bijection between nonempty wall sets and
    # proper partitions, inverse to the wall extraction
    for n in range(2, 9):
        positions = range(1, n)
        images = set()
        for r in range(1, n):
            for walls in itertools.combinations(positions, r):
                p = chamber_face_label(n, walls)
                assert walls_of_face(p) == frozenset(walls)
                images.add(p)
        assert images == set(proper_partitions(n))

    doc = run_cli(box, "building", "--n", "4")
    assert doc["count"] == 7


@pytest.mark.criterion(9, "every CLI invocation above, repeated, is byte-identical")
def test_criterion_9_determinism(box):
    assert box.calls, "earlier criteria must have recorded CLI invocations"
    replayed = set()
    for argv, stdout, emitted in box.calls:
        if argv in replayed:
            continue
        replayed.add(argv)
        again = subprocess.run(CLI + list(argv), capture_output=True, timeout=600)
        assert again.returncode == 0
        assert again.stdout == stdout, argv
        for path, data in emitted:
            assert Path(path).read_bytes() == data, (argv, path)
    assert len(replayed) >= 10
