"""Perfect-form machinery: perfection test, domain facets, neighbors,
equivalence, and the catalog walk.

Perfection is cross-checked by the rank of the minimal-vector value
system (computed with sympy), and facet enumeration against a
brute-force subset/nullspace search over the ray configuration.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import floor, gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vorocell.linalg
import vorocell.minvec
import vorocell.perfect

from vorocell.linalg import (
    SymMatrix,
    is_positive_definite,
    mat_mul,
    transpose,
    unimodular_inverse,
)
from vorocell.minvec import minimal_vectors, vectors_below
from vorocell.perfect import (
    Catalog,
    NeighborStepError,
    PerfectFormRecord,
    a_root_form,
    are_equivalent,
    enumerate_perfect_forms,
    facets_of_cone,
    is_perfect,
    neighbor,
)


# -- oracle 1: perfection as a rank condition -------------------------------
# A form with minimum mu is perfect iff the equations m^t Z m = mu, one per
# minimal vector, pin down the symmetric matrix Z; that is, iff the value
# rows span the full n(n+1)/2-dimensional space.


def value_row(m):
    n = len(m)
    row = []
    for i in range(n):
        for j in range(i, n):
            row.append(m[i] * m[i] if i == j else 2 * m[i] * m[j])
    return row


def perfect_by_rank(q: SymMatrix) -> bool:
    vecs = minimal_vectors(q).vectors
    mat = sympy.Matrix([value_row(m) for m in vecs])
    return mat.rank() == q.n * (q.n + 1) // 2


# -- oracle 2: facets of cone{m m^t} by subset nullspaces --------------------
# A facet is a (d-1)-dimensional face: some supporting hyperplane with all
# rays on one side and a rank-(d-1) set of rays on it.  Enumerate candidate
# normals from nullspaces of ray subsets and keep the one-sided ones.


def pairing_row(ray: SymMatrix):
    n = ray.n
    row = []
    for i in range(n):
        for j in range(i, n):
            w = 1 if i == j else 2
            row.append(w * sympy.Rational(str(ray[i, j])))
    return row


def facet_supports_brute(rays):
    return cone_facet_supports_brute([pairing_row(r) for r in rays])


def cone_facet_supports_brute(rows):
    """Facet supports of the cone spanned by the given rows."""
    d = len(rows[0])
    supports = set()
    for subset in itertools.combinations(range(len(rows)), d - 1):
        mat = sympy.Matrix([rows[i] for i in subset])
        null = mat.nullspace()
        if len(null) != 1:
            continue
        normal = null[0]
        values = [sympy.Matrix([row]).dot(normal) for row in rows]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            values = [-v for v in values]
        else:
            continue
        if all(v == 0 for v in values):
            continue
        supports.add(frozenset(i for i, v in enumerate(values) if v == 0))
    return supports


def ray_matrices(record):
    """The rank-one rays m m^T of a record's domain cone."""
    return [SymMatrix.rank_one(m) for m in record.min_data.vectors]


D4 = [[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]]


# -- perfection ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_root_forms_are_perfect(n):
    q = a_root_form(n)
    assert is_perfect(q)
    assert perfect_by_rank(q)


def test_identity_is_not_perfect():
    q = SymMatrix.identity(3)
    assert not is_perfect(q)
    assert not perfect_by_rank(q)


def test_perfection_matches_rank_oracle_on_scaled_forms():
    for rows in [
        [[2, 1], [1, 2]],
        [[2, 0], [0, 2]],
        [[4, 1], [1, 4]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    ]:
        q = SymMatrix(rows)
        assert bool(is_perfect(q)) == perfect_by_rank(q), rows


def test_perfection_result_kernel_spans_violations():
    res = is_perfect(SymMatrix.identity(2))
    assert not res.perfect
    assert res.kernel
    md = minimal_vectors(SymMatrix.identity(2))
    for z in res.kernel:
        assert all(z.evaluate(m) == 0 for m in md.vectors)


# -- domain cones and facets ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_facets_match_brute_force(n):
    record = PerfectFormRecord(a_root_form(n))
    expected = facet_supports_brute(ray_matrices(record))
    got = {frozenset(f.ray_support) for f in record.facets}
    assert got == expected


def test_d4_facet_count_matches_brute_force():
    record = PerfectFormRecord(SymMatrix(D4))
    assert len(record.min_data.vectors) == 12
    expected = facet_supports_brute(ray_matrices(record))
    got = {frozenset(f.ray_support) for f in record.facets}
    assert got == expected
    assert len(got) == 64


@st.composite
def degenerate_ray_sets(draw):
    """Full-dimensional integer ray sets in dimensions 3-5 with a positive
    first coordinate (a pointed cone).  Other coordinates in {-1, 0, 1}
    put many rays on common hyperplanes; some rays come again, as they
    are or doubled."""
    d = draw(st.integers(3, 5))
    ray = st.tuples(st.integers(1, 2), *[st.integers(-1, 1)] * (d - 1))
    rays = draw(st.lists(ray, min_size=d, max_size=d + 6))
    for i in draw(st.lists(st.integers(0, len(rays) - 1), max_size=2)):
        factor = draw(st.sampled_from([1, 2]))
        rays.append(tuple(factor * x for x in rays[i]))
    assume(sympy.Matrix(rays).rank() == d)
    return [list(r) for r in rays]


@given(degenerate_ray_sets())
@settings(max_examples=60, deadline=None)
def test_facets_of_cone_match_sympy_brute_force(rows):
    facets = facets_of_cone(rows)
    supports = [f.ray_support for f in facets]
    assert supports == sorted(supports)
    assert {frozenset(s) for s in supports} == cone_facet_supports_brute(rows)
    assert len(set(supports)) == len(supports)
    for facet in facets:
        assert all(type(x) is int for x in facet.normal)
        assert gcd(*facet.normal) == 1
        values = [sum(a * b for a, b in zip(row, facet.normal)) for row in rows]
        assert all(v >= 0 for v in values)
        assert tuple(i for i, v in enumerate(values) if v == 0) == facet.ray_support


D6 = [
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, 0],
    [0, 0, -1, 2, -1, -1],
    [0, 0, 0, -1, 2, 0],
    [0, 0, 0, -1, 0, 2],
]
# sha256 of the sorted (ray_support, normal) list of D6's domain cone, as
# written below; recorded with the double description that tested tight
# sets by recomputing dot products.  The count 6336 is that code's, not
# checked against a published figure.
D6_FACETS_SHA256 = "9a585a46ebacd37fdf4093deed7da1337a5fa8f40e9907e9a18736d176af9c52"


def test_d6_facets_are_pinned():
    record = PerfectFormRecord(SymMatrix(D6))
    assert len(record.min_data.vectors) == 30
    facets = record.facets
    assert len(facets) == 6336
    blob = json.dumps(
        [[list(f.ray_support), list(f.normal)] for f in facets], separators=(",", ":")
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == D6_FACETS_SHA256


def test_facet_normals_are_supporting():
    for form in (a_root_form(3), a_root_form(4), SymMatrix(D4)):
        record = PerfectFormRecord(form)
        rays = ray_matrices(record)
        for facet in record.facets:
            assert all(type(x) is int for x in facet.normal)
            assert gcd(*facet.normal) == 1
            normal = SymMatrix.from_upper(record.n, facet.normal)
            values = [normal.pair(r) for r in rays]
            assert all(v >= 0 for v in values)
            zero = frozenset(i for i, v in enumerate(values) if v == 0)
            assert zero == frozenset(facet.ray_support)
            assert any(v > 0 for v in values)


def test_each_step_factors_a_form_once(monkeypatch):
    """integer_ldlt keeps its rows on the matrix: over the whole n=4
    enumeration no matrix object is factored twice, and the neighbor
    steps, records and isometry searches read the stored rows."""
    real = vorocell.linalg.integer_ldlt
    factored = []  # kept alive, so that no id is reused
    calls = 0

    def counted(a):
        nonlocal calls
        calls += 1
        if not hasattr(a, "_ldlt"):
            factored.append(a)
        return real(a)

    for module in (vorocell.linalg, vorocell.minvec, vorocell.perfect):
        monkeypatch.setattr(module, "integer_ldlt", counted)
    assert len(vorocell.perfect.enumerate_perfect_forms(4)) == 2
    assert len({id(a) for a in factored}) == len(factored)
    assert 0 < len(factored) < calls


# -- neighbors -----------------------------------------------------------------


def test_neighbor_of_a2_is_a2_class():
    record = PerfectFormRecord(a_root_form(2))
    for facet in record.facets:
        form = neighbor(record, facet)
        assert is_perfect(form)
        assert are_equivalent(record.integral_form, form) is not None


def test_neighbor_has_shared_facet_rays():
    record = PerfectFormRecord(a_root_form(3))
    facet = record.facets[0]
    other = PerfectFormRecord(neighbor(record, facet))
    rays = ray_matrices(record)
    shared = {rays[i].rows for i in facet.ray_support}
    assert shared <= {r.rows for r in ray_matrices(other)}


# -- equivalence ---------------------------------------------------------------


def test_equivalence_produces_checked_certificate():
    a = SymMatrix([[2, 1], [1, 4]])
    b = SymMatrix([[2, -1], [-1, 4]])
    u = are_equivalent(a, b)
    assert u is not None
    assert a.conjugate(u).rows == b.rows
    assert abs(sympy.Matrix(u).det()) == 1


def test_inequivalent_forms_rejected():
    a4 = a_root_form(4)
    d4 = SymMatrix([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
    assert are_equivalent(a4, d4) is None


def test_inequivalent_with_equal_coarse_invariants():
    # same minimum, same count of minimal vectors, same determinant
    a = SymMatrix([[1, 0, 0], [0, 4, 0], [0, 0, 9]])
    b = SymMatrix([[1, 0, 0], [0, 6, 0], [0, 0, 6]])
    assert sympy.Matrix(a.rows).det() == sympy.Matrix(b.rows).det()
    assert minimal_vectors(a).mu == minimal_vectors(b).mu
    assert len(minimal_vectors(a).vectors) == len(minimal_vectors(b).vectors)
    assert are_equivalent(a, b) is None


# -- oracle 3: the plain rational backtrack ------------------------------------
# The search as it was first written: Fraction arithmetic, A v recomputed at
# every node, each column checked only against the columns already placed.
# are_equivalent must return exactly its first witness, not just some witness.


def reference_equivalence(a: SymMatrix, b: SymMatrix):
    if a.n != b.n:
        return None
    if not is_positive_definite(a) or not is_positive_definite(b):
        raise ValueError("both forms must be positive definite")
    a_rows, b_rows = a.rows, b.rows  # each access builds a fresh Fraction view
    if sympy.Matrix(a_rows).det() != sympy.Matrix(b_rows).det():
        return None
    n = a.n
    targets = [b_rows[j][j] for j in range(n)]
    by_value = {}
    # the sweep's bound and values are in a.num units, a.den times A's
    for v, val in vectors_below(a, floor(max(targets) * a.den)):
        by_value.setdefault(Fraction(val, a.den), []).extend([v, tuple(-x for x in v)])
    candidates = []
    for t in targets:
        pool = sorted(by_value.get(t, []))
        if not pool:
            return None
        candidates.append(pool)
    cols = []

    def place(j):
        for v in candidates[j]:
            av = [sum(a_rows[i][k] * v[k] for k in range(n)) for i in range(n)]
            if all(
                sum(av[i] * u[i] for i in range(n)) == b_rows[j][jj]
                for jj, u in enumerate(cols)
            ):
                cols.append(v)
                if j + 1 == n or place(j + 1):
                    return True
                cols.pop()
        return False

    if not place(0):
        return None
    return [[cols[j][i] for j in range(n)] for i in range(n)]


D5 = [
    [2, -1, 0, 0, 0],
    [-1, 2, -1, 0, 0],
    [0, -1, 2, -1, -1],
    [0, 0, -1, 2, 0],
    [0, 0, -1, 0, 2],
]


def random_gl(n, rng, steps=5):
    """A random element of GL_n(Z): transvections, then a column sign
    flip half of the time, so both determinants occur."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for row in u:
            row[j] += c * row[i]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        for row in u:
            row[k] = -row[k]
    return u


def assert_same_witness(a, b):
    u = are_equivalent(a, b)
    assert u == reference_equivalence(a, b)
    return u


ROOT_LATTICES = {
    "A3": a_root_form(3),
    "A4": a_root_form(4),
    "D4": SymMatrix(D4),
    "A5": a_root_form(5),
    "D5": SymMatrix(D5),
}


@pytest.mark.parametrize("name", sorted(ROOT_LATTICES))
def test_witness_matches_reference_on_random_conjugates(name):
    gram = ROOT_LATTICES[name]
    rng = random.Random(f"witness:{name}")
    for _ in range(6):
        b = gram.conjugate(random_gl(gram.n, rng))
        for x, y in ((gram, b), (b, gram)):
            u = assert_same_witness(x, y)
            assert u is not None
            assert x.conjugate(u) == y


def test_witness_matches_reference_on_rational_forms():
    a = SymMatrix([[Fraction(7, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 4)]])
    b = a.conjugate([[2, 1], [-1, 0]])
    assert assert_same_witness(a, b) is not None
    a3 = a_root_form(3).scale(Fraction(2, 7))
    b3 = a3.conjugate(random_gl(3, random.Random(3)))
    assert assert_same_witness(a3, b3) is not None
    # rational entries on one side only: scaling is not quotiented
    assert assert_same_witness(a3, a_root_form(3)) is None
    # equal determinants over denominators 1 and 2
    half = SymMatrix([[Fraction(9, 2), 0], [0, 2]])
    assert assert_same_witness(SymMatrix([[1, 0], [0, 9]]), half) is None


def test_witness_matches_reference_on_scaled_pair():
    rng = random.Random(11)
    a = SymMatrix(D4)
    b = a.conjugate(random_gl(4, rng))
    u = assert_same_witness(a, b)
    assert assert_same_witness(a.scale(6), b.scale(6)) == u
    assert assert_same_witness(a.scale(Fraction(1, 6)), b.scale(Fraction(1, 6))) == u


def test_inequivalent_pairs_match_reference():
    a4 = a_root_form(4)
    assert assert_same_witness(a4, SymMatrix(D4)) is None
    a = SymMatrix([[1, 0, 0], [0, 4, 0], [0, 0, 9]])
    b = SymMatrix([[1, 0, 0], [0, 6, 0], [0, 0, 6]])
    assert assert_same_witness(a, b) is None


def test_unimodular_inverse():
    u = [[1, 2], [1, 3]]
    inv = unimodular_inverse(u)
    assert mat_mul(u, inv) == [[1, 0], [0, 1]]


# -- enumeration and the catalog -------------------------------------------


def test_enumeration_small_dimensions():
    assert len(enumerate_perfect_forms(2).records) == 1
    assert len(enumerate_perfect_forms(3).records) == 1
    assert len(enumerate_perfect_forms(4).records) == 2


def test_enumeration_from_d4_finds_the_same_classes():
    a4_first = enumerate_perfect_forms(4)
    seeded = Catalog(4)
    seeded.add(PerfectFormRecord(SymMatrix(D4)))
    d4_first = enumerate_perfect_forms(4, catalog=seeded)
    assert d4_first.complete
    assert [len(r.facets) for r in d4_first.records] == [64, 10]
    assert {r.invariant_key() for r in d4_first.records} == {
        r.invariant_key() for r in a4_first.records
    }


def test_enumeration_limit_and_resume():
    partial = enumerate_perfect_forms(4, limit=1)
    assert not partial.complete
    assert len(partial.records) == 1
    resumed = enumerate_perfect_forms(4, catalog=partial)
    assert resumed.complete
    assert len(resumed.records) == 2


def test_catalog_json_round_trip():
    cat = enumerate_perfect_forms(3)
    doc = cat.to_json_dict()
    again = Catalog.from_json_dict(doc)
    assert again.to_json_dict() == doc
    assert again.complete


def test_catalog_hash_detects_tampering():
    doc = enumerate_perfect_forms(2).to_json_dict()
    doc["classes"][0]["mu"] = "7"
    with pytest.raises(ValueError):
        Catalog.from_json_dict(doc)


def test_catalog_neighbor_edges_reach_every_class():
    cat = enumerate_perfect_forms(4)
    seen = {0}
    for ci, nbrs in enumerate(cat.neighbors):
        assert nbrs is not None
        seen.update(nbrs)
    assert seen == set(range(len(cat.records)))
    rec = cat.records[0]
    for fi in range(len(rec.facets)):
        j, u = cat.edge(0, fi)
        contiguous = neighbor(rec, rec.facets[fi])
        assert cat.records[j].integral_form.conjugate(u).rows == contiguous.rows


# -- catalog validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "neighbors, complete",
    [
        ("000", True),  # not a list
        ([0, 0, 1], True),  # index past the last class
        ([0, 0, -1], True),  # negative index
        ([0, 0, True], True),  # a boolean is not a class index
        ([0, 0, "0"], True),
        ([0, 0, 0.0], True),
        (None, True),  # a complete catalog cannot leave a class unexpanded
        ([0, 0, 0], "yes"),
    ],
)
def test_catalog_rejects_bad_neighbor_fields(neighbors, complete):
    doc = enumerate_perfect_forms(2).to_json_dict()
    assert doc["classes"][0]["neighbors"] == [0, 0, 0]
    doc["classes"][0]["neighbors"] = neighbors
    doc["complete"] = complete
    with pytest.raises(ValueError):
        Catalog.from_json_dict(doc)


def test_catalog_load_computes_no_facets():
    doc = enumerate_perfect_forms(2).to_json_dict()
    doc["classes"][0]["neighbors"] = [0, 0]  # wrong length: found only by edge
    cat = Catalog.from_json_dict(doc)
    assert cat.records[0]._facets is None
    with pytest.raises(ValueError, match="neighbors has 2 entries for 3 facets"):
        cat.edge(0, 0)


def test_catalog_edge_rejects_a_wrong_stored_neighbor():
    doc = enumerate_perfect_forms(4).to_json_dict()
    stored = doc["classes"][0]["neighbors"]
    fi = stored.index(1)
    stored[fi] = 0
    cat = Catalog.from_json_dict(doc)
    with pytest.raises(ValueError, match=rf"neighbors\[{fi}\] is 0, but .* class 1"):
        cat.edge(0, fi)
