"""Perfect-form machinery: perfection test, domain facets, neighbors,
equivalence, and the catalog walk.

Perfection is cross-checked by the rank of the minimal-vector value
system (computed with sympy), and facet enumeration against a
brute-force subset/nullspace search over the ray configuration.
"""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import floor, gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vorocell.linalg
import vorocell.minvec
import vorocell.perfect

from vorocell import obs
from vorocell.linalg import (
    SymMatrix,
    is_positive_definite,
    mat_mul,
    transpose,
    unimodular_inverse,
)
from vorocell.minvec import canonical_sign, minimal_vectors, vectors_below
from vorocell.perfect import (
    Catalog,
    NeighborStepError,
    PerfectFormRecord,
    a_root_form,
    are_equivalent,
    automorphism_group,
    enumerate_perfect_forms,
    facet_orbits,
    facets_of_cone,
    is_perfect,
    neighbor,
)
from aut_reference import reference_automorphism_group
from dd_reference import reference_facets_of_cone
from sym_helpers import (
    add,
    conjugate,
    evaluate,
    from_upper,
    identity,
    pair,
    perfection_kernel,
    scale,
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
    q = identity(3)
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
    assert is_perfect(identity(2)) is False
    kernel = perfection_kernel(identity(2))
    assert kernel
    md = minimal_vectors(identity(2))
    for z in kernel:
        assert all(evaluate(z, m) == 0 for m in md.vectors)
    assert perfection_kernel(a_root_form(2)) == ()


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


def assert_same_as_reference(rows):
    """facets_of_cone gives the reference's facets (normal, support, mask
    and order) and ``dd`` counters, and each mask holds its support."""
    with obs.collecting() as got_counters:
        got = facets_of_cone(rows)
    with obs.collecting() as want_counters:
        want = reference_facets_of_cone(rows)
    assert got == want
    for facet in got:
        assert facet.mask == sum(1 << i for i in facet.ray_support)
    assert got_counters == want_counters


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_facets_of_cone_match_the_reference_on_every_class_cone(n):
    for record in enumerate_perfect_forms(n).records:
        assert_same_as_reference([value_row(v) for v in record.min_data.vectors])


def test_facets_of_cone_match_the_reference_on_d6():
    record = PerfectFormRecord(SymMatrix(D6))
    assert_same_as_reference([value_row(v) for v in record.min_data.vectors])


@given(degenerate_ray_sets())
@settings(max_examples=60, deadline=None)
def test_facets_of_cone_match_the_reference_on_degenerate_rays(rows):
    assert_same_as_reference(rows)


def test_set_bits_reads_the_binary_digits():
    assert vorocell.perfect._set_bits(0) == ()
    assert vorocell.perfect._set_bits(1 << 7) == (7,)
    assert vorocell.perfect._set_bits(1 << 203 | 0b101) == (0, 2, 203)
    assert vorocell.perfect._digits(0b1101) == bytes([1, 0, 1, 1])


def test_primitive_divides_by_the_content_and_keeps_signs():
    assert vorocell.perfect._primitive([-3, 2, 0]) == (-3, 2, 0)
    assert vorocell.perfect._primitive([0, -6, 4]) == (0, -3, 2)
    with pytest.raises(ValueError, match="zero vector"):
        vorocell.perfect._primitive([0, 0, 0])


def test_facet_normals_are_supporting():
    for form in (a_root_form(3), a_root_form(4), SymMatrix(D4)):
        record = PerfectFormRecord(form)
        rays = ray_matrices(record)
        for facet in record.facets:
            assert all(type(x) is int for x in facet.normal)
            assert gcd(*facet.normal) == 1
            normal = from_upper(record.n, facet.normal)
            values = [pair(normal, r) for r in rays]
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


def reference_neighbor(record, facet):
    """The contiguity step as it was first written, in ``Fraction``
    arithmetic on ``SymMatrix`` values: (form, LDL^T probes)."""
    q = record.integral_form
    mu = record.min_data.mu
    r = from_upper(q.n, facet.normal)
    old = set(record.min_data.vectors)
    lo, step = Fraction(0), Fraction(1)
    for probes in range(1, 201):
        cur = lo + step
        probe = add(q, scale(r, cur))
        if not is_positive_definite(probe):
            step /= 2
            continue
        bound = mu.numerator * probe.den // mu.denominator
        fresh = [v for v, _ in vectors_below(probe, bound) if v not in old and evaluate(r, v) < 0]
        if fresh:
            rho = min((mu - evaluate(q, v)) / evaluate(r, v) for v in fresh)
            return add(q, scale(r, rho)), probes
        lo = cur
        step *= 2
    raise NeighborStepError("no step")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_neighbor_matches_the_fraction_step(n):
    """The integer step gives the form and the probe count of the
    ``Fraction`` step on every facet of every class."""
    for record in enumerate_perfect_forms(n).records:
        for facet in record.facets:
            with obs.collecting() as book:
                form = neighbor(record, facet)
            expected, probes = reference_neighbor(record, facet)
            assert (form.num, form.den) == (expected.num, expected.den)
            assert book["neighbor"] == {"steps": 1, "ldlt_probes": probes}


def test_neighbor_takes_the_least_crossing_parameter():
    """On the facets of the catalogs every fresh vector of the accepted
    probe crosses at the same rho.  Along these directions R, with
    R[m] >= 0 on every minimal vector of A3 as on a facet normal, the
    accepted probe holds fresh vectors of two or three different
    crossing parameters, so the step must pick the least."""
    record = PerfectFormRecord(a_root_form(3))
    for normal in [(0, -1, -2, 2, 2, 1), (0, -1, 1, 2, 1, 2), (0, -1, 2, 2, 0, 1)]:
        facet = dataclasses.replace(record.facets[0], normal=normal)
        form = neighbor(record, facet)
        expected, _ = reference_neighbor(record, facet)
        assert (form.num, form.den) == (expected.num, expected.den)


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
    assert conjugate(a, u).rows == b.rows
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
        b = conjugate(gram, random_gl(gram.n, rng))
        for x, y in ((gram, b), (b, gram)):
            u = assert_same_witness(x, y)
            assert u is not None
            assert conjugate(x, u) == y


def test_witness_matches_reference_on_rational_forms():
    a = SymMatrix([[Fraction(7, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 4)]])
    b = conjugate(a, [[2, 1], [-1, 0]])
    assert assert_same_witness(a, b) is not None
    a3 = scale(a_root_form(3), Fraction(2, 7))
    b3 = conjugate(a3, random_gl(3, random.Random(3)))
    assert assert_same_witness(a3, b3) is not None
    # rational entries on one side only: scaling is not quotiented
    assert assert_same_witness(a3, a_root_form(3)) is None
    # equal determinants over denominators 1 and 2
    half = SymMatrix([[Fraction(9, 2), 0], [0, 2]])
    assert assert_same_witness(SymMatrix([[1, 0], [0, 9]]), half) is None


def test_witness_matches_reference_on_scaled_pair():
    rng = random.Random(11)
    a = SymMatrix(D4)
    b = conjugate(a, random_gl(4, rng))
    u = assert_same_witness(a, b)
    assert assert_same_witness(scale(a, 6), scale(b, 6)) == u
    assert assert_same_witness(scale(a, Fraction(1, 6)), scale(b, Fraction(1, 6))) == u


def test_inequivalent_pairs_match_reference():
    a4 = a_root_form(4)
    assert assert_same_witness(a4, SymMatrix(D4)) is None
    a = SymMatrix([[1, 0, 0], [0, 4, 0], [0, 0, 9]])
    b = SymMatrix([[1, 0, 0], [0, 6, 0], [0, 0, 6]])
    assert assert_same_witness(a, b) is None


def fresh(a: SymMatrix) -> SymMatrix:
    """A copy of a with nothing kept on it: no LDL^T, no candidate pools."""
    return SymMatrix(a.rows)


def counted_equivalence(a, b):
    with obs.collecting() as book:
        u = are_equivalent(a, b)
    return u, book


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cached_pools_give_the_fresh_search(n):
    """One class form answers a sequence of searches whose largest target
    first rises, so its pools are swept again, and then falls; among them
    a form of equal det and den that is not equivalent.  Each call gives
    the witness and the isometry counters of a search on a fresh copy,
    and the witness of the reference backtrack."""
    for k, record in enumerate(enumerate_perfect_forms(n).records):
        rng = random.Random(f"pools:{n}:{k}")
        a = fresh(record.integral_form)
        det = int(sympy.Matrix(a.rows).det())
        conjugates = sorted(
            (conjugate(a, random_gl(n, rng, steps)) for steps in (1, 2, 3, 4)),
            key=lambda b: max(b.num[j][j] for j in range(n)),
        )
        unit = SymMatrix([[det if i == j == n - 1 else int(i == j) for j in range(n)]
                          for i in range(n)])
        stranger = conjugate(unit, random_gl(n, rng, 2))
        assert stranger.den == a.den and sympy.Matrix(stranger.rows).det() == det
        sequence = [a, *conjugates, stranger, *reversed(conjugates), a]
        swept = 0
        sweeps = []
        for b in sequence:
            u, book = counted_equivalence(a, b)
            again, fresh_book = counted_equivalence(fresh(a), b)
            assert u == again == reference_equivalence(a, b)
            assert (u is None) == (b is stranger)
            assert book["isometry"] == fresh_book["isometry"]
            bound = max(b.num[j][j] for j in range(n))
            sweeps.append(book.get("classify", {}).get("pool_sweeps", 0))
            assert sweeps[-1] == int(bound > swept)
            swept = max(swept, bound)
        assert sweeps[0] == 1 and sum(sweeps) >= 2  # the bound rose at least once
        assert sweeps[-len(conjugates) - 1:] == [0] * (len(conjugates) + 1)


def test_a_contiguous_form_that_is_not_perfect_is_refused(monkeypatch):
    """With every contiguity step landing on the identity, a positive
    definite form that is not perfect, the enumeration (with and without
    a limit) and a catalog edge raise the perfection error, not a
    catalog error."""
    cat = Catalog.from_json_dict(enumerate_perfect_forms(2).to_json_dict())
    monkeypatch.setattr(vorocell.perfect, "neighbor", lambda record, facet: identity(2))
    for limit in (None, 1):
        with pytest.raises(ValueError) as raised:
            enumerate_perfect_forms(2, limit=limit)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "form is not perfect"
    with pytest.raises(ValueError) as raised:
        cat.edge(0, 0)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "form is not perfect"


def test_loading_rank_tests_each_class_once():
    doc = enumerate_perfect_forms(4).to_json_dict()
    with obs.collecting() as book:
        Catalog.from_json_dict(doc)
    assert book["classify"] == {"perfection_tests": 2}


def test_unimodular_inverse():
    u = [[1, 2], [1, 3]]
    inv = unimodular_inverse(u)
    assert mat_mul(u, inv) == [[1, 0], [0, 1]]


# -- automorphisms and facet orbits ------------------------------------------
# Oracle: every automorphism listed by a plain backtrack over the vectors of
# each diagonal value, checked against the stabilizer chain's order and, on
# the facets, against the traversal under the generators.


def all_automorphisms(a: SymMatrix):
    """Every U with U^T A U = A, by a plain backtrack on Fraction rows."""
    rows, n = a.rows, a.n
    by_value = {}
    for v, val in vectors_below(a, max(a.num[j][j] for j in range(n))):
        by_value.setdefault(val, []).extend([v, tuple(-x for x in v)])
    pools = [by_value[a.num[j][j]] for j in range(n)]
    found, cols = [], []

    def place(j):
        for v in pools[j]:
            av = [sum(rows[i][k] * v[k] for k in range(n)) for i in range(n)]
            if all(sum(av[i] * u[i] for i in range(n)) == rows[j][jj] for jj, u in enumerate(cols)):
                cols.append(v)
                if j + 1 == n:
                    found.append([[cols[c][i] for c in range(n)] for i in range(n)])
                else:
                    place(j + 1)
                cols.pop()

    place(0)
    return found


def orbit_partition(record, group):
    """The facets' orbits under a listed group, as a set of frozensets
    of ray supports."""
    vectors = record.min_data.vectors
    index = {v: i for i, v in enumerate(vectors)}
    images = [
        [index[canonical_sign(tuple(sum(map(int.__mul__, row, v)) for row in u))] for v in vectors]
        for u in group
    ]
    return {
        frozenset(tuple(sorted(perm[x] for x in facet.ray_support)) for perm in images)
        for facet in record.facets
    }


AUT_ORDERS = {2: [12], 3: [48], 4: [240, 1152], 5: [1440, 3840, 1440]}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_automorphism_groups_of_the_classes(n):
    """|Aut| of every class (Conway–Sloane): 12; 48; 240, 1152; 1440,
    3840, 1440.  Each generator is an automorphism of determinant +-1,
    and each facet's root is the least index of its orbit, whose sizes
    add up to the facet count of double description."""
    cat = enumerate_perfect_forms(n)
    assert [r.automorphisms().order for r in cat.records] == AUT_ORDERS[n]
    for record in cat.records:
        a = record.integral_form
        for u in record.automorphisms().generators:
            assert conjugate(a, u) == a
            assert abs(sympy.Matrix(u).det()) == 1
        roots = record.facet_orbits()
        assert sum(Counter(roots).values()) == len(record.facets)
        assert all(roots[root] == root <= i for i, root in enumerate(roots))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_automorphism_group_matches_the_unfiltered_chain(n):
    """The inner-product test skips only candidates whose search fails:
    the generators, their order and |Aut| are the reference chain's, and
    the searches it skips are the ones counted as cut."""
    for record in enumerate_perfect_forms(n).records:
        q = record.integral_form
        with obs.collecting() as got_counters:
            got = automorphism_group(q)
        with obs.collecting() as want_counters:
            want = reference_automorphism_group(q)
        assert got == want
        aut, ref = got_counters["aut"], want_counters["aut"]
        assert aut["searches"] + aut["candidates_cut"] == ref["searches"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generators_give_the_orbits_of_the_listed_group(n):
    """The listed group has |Aut| elements, and the orbits that the
    traversal under the generators builds are the orbits of the whole
    group."""
    for record in enumerate_perfect_forms(n).records:
        group = all_automorphisms(record.integral_form)
        assert len(group) == record.automorphisms().order
        blocks = {}
        for facet, root in zip(record.facets, record.facet_orbits()):
            blocks.setdefault(root, set()).add(facet.ray_support)
        assert {frozenset(b) for b in blocks.values()} == orbit_partition(record, group)


def test_orbits_reject_a_support_that_is_no_facet():
    record = PerfectFormRecord(a_root_form(3))
    facets = record.facets[1:]  # the first facet, an image of the others, is missing
    with pytest.raises(RuntimeError, match="onto no facet"):
        facet_orbits(facets, record.min_data.vectors, record.automorphisms().generators)


def catalog_bytes(cat):
    return json.dumps(cat.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("keep", [0, 1, -1], ids=["none", "first", "all-but-last"])
def test_fewer_generators_give_the_same_catalog(monkeypatch, keep):
    """A subgroup has finer orbits, so more facets are expanded, but the
    same facet finds each new class: the catalog bytes do not change."""
    runs = {str(n): (n, None) for n in (2, 3, 4, 5)}
    runs["5-limit-2"] = (5, 2)
    full = {k: catalog_bytes(enumerate_perfect_forms(n, limit)) for k, (n, limit) in runs.items()}
    real = PerfectFormRecord.automorphisms

    def fewer(self):
        group = real(self)
        return dataclasses.replace(group, generators=group.generators[:keep])

    monkeypatch.setattr(PerfectFormRecord, "automorphisms", fewer)
    for key, (n, limit) in runs.items():
        assert catalog_bytes(enumerate_perfect_forms(n, limit)) == full[key], key


def test_resumed_catalog_gives_the_fresh_bytes():
    fresh = catalog_bytes(enumerate_perfect_forms(5))
    partial = enumerate_perfect_forms(5, limit=2)
    assert not partial.complete
    loaded = Catalog.from_json_dict(json.loads(catalog_bytes(partial)))
    assert catalog_bytes(enumerate_perfect_forms(5, catalog=loaded)) == fresh
    assert catalog_bytes(enumerate_perfect_forms(5, catalog=partial)) == fresh


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
        assert conjugate(cat.records[j].integral_form, u).rows == contiguous.rows


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
