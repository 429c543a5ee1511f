"""Reduction walk: membership certificates, equivariance, termination.

The independent check used throughout: a result is correct iff the
returned coefficients and translated rays reconstruct the input form
exactly, with strictly positive coefficients exactly on the support.
That certificate does not trust any of the walk bookkeeping.
"""

import random
from fractions import Fraction
from operator import mul

import pytest
import sympy

from vorocell import reduction
from vorocell.linalg import SymMatrix, is_positive_definite, mat_mul, transpose
from vorocell.perfect import Catalog, enumerate_perfect_forms
from vorocell.reduction import (
    WalkDivergenceError,
    _pairing_coordinates,
    _positive_certificate,
    reduce_with_trace,
    voronoi_reduce,
)
from sym_helpers import add, conjugate, identity, membership, rank_one, scale, translated_rays


def reconstructs(x: SymMatrix, result, catalog) -> bool:
    rays = translated_rays(result, catalog)
    total = scale(identity(x.n), 0)
    for c, r in zip(result.coefficients, rays):
        if c <= 0:
            return False
        total = add(total, scale(r, c))
    return total.rows == x.rows


def random_unimodular(n, rng, steps=6):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


@pytest.fixture(scope="module")
def cat2():
    return enumerate_perfect_forms(2)


@pytest.fixture(scope="module")
def cat3():
    return enumerate_perfect_forms(3)


@pytest.fixture(scope="module")
def cat4():
    return enumerate_perfect_forms(4)


def test_hexagonal_form_is_interior(cat2):
    x = SymMatrix([[2, 1], [1, 2]])
    res = voronoi_reduce(x, cat2)
    assert res.class_index == 0
    assert res.steps == 0
    assert res.support == (0, 1, 2)
    assert res.coefficients == (1, 1, 1)
    assert reconstructs(x, res, cat2)


def test_identity_lies_on_a_face(cat2):
    res = voronoi_reduce(identity(2), cat2)
    assert len(res.support) == 2
    assert reconstructs(identity(2), res, cat2)


def test_witness_is_unimodular(cat2):
    x = SymMatrix([[13, 8], [8, 5]])
    res = voronoi_reduce(x, cat2)
    assert abs(sympy.Matrix(res.witness).det()) == 1
    assert reconstructs(x, res, cat2)


def conjugated_rays(rays, u):
    return {
        SymMatrix(mat_mul(mat_mul(transpose(u), [list(r) for r in m.rows]), u)).rows
        for m in rays
    }


def check_equivariance(x, catalog, unimodulars):
    """Reducing U^T x U lands in the same class, and its supporting rays
    are the base result's rays moved by the same conjugation."""
    base = voronoi_reduce(x, catalog)
    base_rays = translated_rays(base, catalog)
    for u in unimodulars:
        y = conjugate(x, u)
        res = voronoi_reduce(y, catalog)
        assert res.class_index == base.class_index
        assert reconstructs(y, res, catalog)
        assert {r.rows for r in translated_rays(res, catalog)} == conjugated_rays(base_rays, u)
    return base


def random_gl(n, rng):
    """random_unimodular, with one column negated half of the time, so
    both determinants of GL_n(Z) occur."""
    u = random_unimodular(n, rng)
    if rng.random() < 0.5:
        k = rng.randrange(n)
        for row in u:
            row[k] = -row[k]
    return u


def test_translation_equivariance(cat2):
    rng = random.Random(20240817)
    x = SymMatrix([[5, 2], [2, 3]])
    check_equivariance(x, cat2, [random_unimodular(2, rng) for _ in range(12)])


def interior_form(record, rng):
    """A positive combination of every ray of the class's domain cone
    with generic weights, so the form lies in the open cone."""
    total = scale(identity(record.n), 0)
    for m in record.min_data.vectors:
        ray = rank_one(m)
        total = add(total, scale(ray, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    return total


@pytest.mark.parametrize("n", [3, 4])
def test_translation_equivariance_in_higher_dimensions(n, request):
    catalog = request.getfixturevalue(f"cat{n}")
    rng = random.Random(f"equivariance:{n}")
    for index, record in enumerate(catalog.records):
        x = interior_form(record, rng)
        unimodulars = [random_gl(n, rng) for _ in range(6)]
        base = check_equivariance(x, catalog, unimodulars)
        assert base.class_index == index
        assert base.support == tuple(range(len(record.min_data.vectors)))


def test_far_from_domain_takes_steps(cat2):
    u = [[1, 7], [0, 1]]
    x = conjugate(SymMatrix([[2, 1], [1, 2]]), u)
    res, trace = reduce_with_trace(x, cat2)
    assert res.steps == len(trace) > 0
    assert reconstructs(x, res, cat2)


def test_three_dimensional_walk(cat3):
    rng = random.Random(7)
    for _ in range(10):
        u = random_unimodular(3, rng)
        x = conjugate(SymMatrix([[2, 1, 1], [1, 3, 0], [1, 0, 4]]), u)
        assert is_positive_definite(x)
        res = voronoi_reduce(x, cat3)
        assert res.class_index == 0
        assert reconstructs(x, res, cat3)


def test_enumerated_and_loaded_catalogs_reduce_alike(cat4):
    # lies on a proper face of a D4 domain; its walk crosses the edge
    # along which the enumeration discovered a class, so the witness of
    # that edge must not depend on how the catalog was obtained
    x = SymMatrix([[3, 6, 2, 0], [6, 15, 5, -3], [2, 5, 4, 2], [0, -3, 2, 7]])
    loaded = Catalog.from_json_dict(cat4.to_json_dict())
    assert voronoi_reduce(x, cat4) == voronoi_reduce(x, loaded)


def test_rational_entries(cat2):
    x = SymMatrix([[Fraction(7, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 4)]])
    res = voronoi_reduce(x, cat2)
    assert reconstructs(x, res, cat2)


def test_rejects_non_positive_definite(cat2):
    with pytest.raises(ValueError):
        voronoi_reduce(SymMatrix([[1, 2], [2, 1]]), cat2)


def test_rejects_dimension_mismatch(cat2):
    with pytest.raises(ValueError):
        voronoi_reduce(identity(3), cat2)


def test_rejects_incomplete_catalog():
    partial = enumerate_perfect_forms(4, limit=1)
    with pytest.raises(ValueError):
        voronoi_reduce(identity(4), partial)


# -- the positive certificate against the halving loop -----------------------


def halving_certificate(vectors, y, den):
    """The reference certificate: push y / den toward the ray sum by
    eps = 1, 1/2, 1/4, ... and solve a fresh membership LP each time,
    until the pushed target lies in the cone.  Returns the weights and
    the exponent k of the eps that worked."""
    n = len(y)
    rays = [rank_one(v) for v in vectors]
    total = [[sum(v[i] * v[j] for v in vectors) for j in range(n)] for i in range(n)]
    for k in range(64):
        eps = Fraction(1, 2**k)
        shifted = SymMatrix(
            [[Fraction(a, den) - eps * t for a, t in zip(row, trow)] for row, trow in zip(y, total)]
        )
        member = membership(rays, shifted)
        if member is not None:
            return tuple(c + eps for c in member), k
    raise WalkDivergenceError("no strictly positive certificate on the face")


def certificate_case(record, support, weights):
    """The arguments of ``_positive_certificate`` for the target
    sum_i weights[i] q(v_i) over the rays of ``support``."""
    x = scale(identity(record.n), 0)
    for i, w in zip(support, weights):
        x = add(x, scale(rank_one(record.min_data.vectors[i]), w))
    coords = _pairing_coordinates(x.num)
    values = [sum(map(mul, f.normal, coords)) for f in record.facets]
    return record, support, x.num, x.den, values


def assert_matches_halving(record, support, y, den, values):
    coeffs, k = _positive_certificate(record, support, y, den, values)
    vectors = [record.min_data.vectors[i] for i in support]
    assert (coeffs, k) == halving_certificate(vectors, y, den)
    return k


def random_positive_form(n, rng):
    """A positive sum of rank-one terms over the basis and a few small
    vectors, moved by a random unimodular matrix."""
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for _ in range(rng.randint(0, 3)):
        v = [0] * n
        while not any(v):
            v = [rng.randint(-1, 1) for _ in range(n)]
        vectors.append(tuple(v))
    x = scale(identity(n), 0)
    for v in vectors:
        x = add(x, scale(rank_one(v), Fraction(rng.randint(1, 9), rng.randint(1, 9))))
    return conjugate(x, random_unimodular(n, rng, rng.randint(0, 6)))


@pytest.mark.parametrize("n, count", [(2, 30), (3, 30), (4, 24)])
def test_certificate_matches_halving_on_reduced_forms(n, count, request, monkeypatch):
    catalog = request.getfixturevalue(f"cat{n}")
    calls = []

    def recording(*args):
        calls.append(args)
        return _positive_certificate(*args)

    monkeypatch.setattr(reduction, "_positive_certificate", recording)
    rng = random.Random(f"certificate:{n}")
    for _ in range(count):
        x = random_positive_form(n, rng)
        assert reconstructs(x, voronoi_reduce(x, catalog), catalog)
    assert len(calls) == count
    exponents = {assert_matches_halving(*args) for args in calls}
    assert len(exponents) > 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_matches_halving_on_proper_faces(n, request):
    # targets in the relative interior of one facet, and of the face two
    # facets share, so that the certificate sees proper faces
    catalog = request.getfixturevalue(f"cat{n}")
    rng = random.Random(f"faces:{n}")
    cases = 0
    for record in catalog.records:
        facets = rng.sample(record.facets, min(8, len(record.facets)))
        supports = [f.ray_support for f in facets]
        for f, g in zip(facets, facets[1:]):
            shared = tuple(sorted(set(f.ray_support) & set(g.ray_support)))
            if shared:
                supports.append(shared)
        for support in supports:
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in support]
            assert_matches_halving(*certificate_case(record, support, weights))
            cases += 1
    assert cases >= 2 * len(catalog.records)


def test_certificate_rejects_a_target_on_the_boundary_of_its_face(cat2):
    # one ray of the facet {0, 1} gets weight 0: the target is a multiple
    # of the other ray, on the boundary of that facet's cone
    record = cat2.records[0]
    (facet,) = [f for f in record.facets if f.ray_support == (0, 1)]
    case = certificate_case(record, facet.ray_support, [Fraction(0), Fraction(3, 2)])
    with pytest.raises(WalkDivergenceError):
        _positive_certificate(*case)
    with pytest.raises(WalkDivergenceError):
        halving_certificate([record.min_data.vectors[0], record.min_data.vectors[1]], *case[2:4])
