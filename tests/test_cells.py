"""Cell complexes, subdivision and homology.

The homology oracle builds chain boundary matrices straight from the
textbook definition (alternating-sign faces of sorted simplices) and
reduces them with sympy — nothing from the module's reduction code is
reused.  A second reference, ``reference_homology``, goes through the
string-id cells of ``to_regular`` and reduces every boundary matrix in
full, without the clearing across degrees that ``homology`` does; it
checks the integer boundary matrices a simplicial complex builds
itself.  A third, ``rational_betti``, takes the ranks of the dense
boundary matrices over the rationals; by universal coefficients its
Betti numbers are the integer ones.  The projective spaces built by
``antipodal_quotient`` are the regular complexes that carry torsion.
"""

import contextlib
import io
import itertools
import json
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vorocell import cli
from vorocell.cells import (
    RegularComplex,
    SimplicialComplex,
    _sparse_reduce,
    homology,
)
from vorocell.linalg import matrix_rank, smith_normal_form
from vorocell.sl2 import QuotientTessellation


# -- independent homology oracle ---------------------------------------------


def simplicial_homology_oracle(maximal_faces):
    """Betti numbers and torsion from first principles with sympy."""
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    faces = set()
    for f in maximal_faces:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    index = {d: {f: i for i, f in enumerate(sorted(fs))} for d, fs in by_dim.items()}

    def boundary(d):
        rows = len(by_dim.get(d - 1, []))
        cols = len(by_dim.get(d, []))
        m = sympy.zeros(rows, cols)
        for f, j in index[d].items():
            for k in range(len(f)):
                sub = f[:k] + f[k + 1 :]
                m[index[d - 1][sub], j] += (-1) ** k
        return m

    betti, torsion = [], []
    ranks = {d: boundary(d).rank() if d in by_dim and d - 1 in by_dim else 0 for d in range(1, top + 1)}
    for d in range(top + 1):
        c = len(by_dim.get(d, []))
        betti.append(c - ranks.get(d, 0) - ranks.get(d + 1, 0))
        if d + 1 in by_dim:
            snf = sympy_snf(boundary(d + 1))
            diag = [abs(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
            torsion.append(tuple(int(x) for x in diag if x > 1))
        else:
            torsion.append(())
    return tuple(betti), tuple(torsion)


def reference_homology(cx):
    """Betti numbers and torsion with each degree reduced on its own."""
    if isinstance(cx, SimplicialComplex):
        cx = cx.to_regular()
    counts = cx.f_vector()
    top = len(counts) - 1
    factors = [[] for _ in range(top + 2)]
    for d in range(1, top + 1):
        factors[d], _ = _sparse_reduce(cx.boundary_matrix(d))
    betti = tuple(
        counts[d] - len(factors[d]) - len(factors[d + 1]) for d in range(top + 1)
    )
    torsion = tuple(tuple(f for f in factors[d + 1] if f > 1) for d in range(top + 1))
    return betti, torsion


def rational_betti(cx):
    """Betti numbers over Q: c_d - rank d_d - rank d_(d+1), with the
    ranks of the dense boundary matrices."""
    counts = cx.f_vector()
    top = len(counts) - 1
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        dense = [[0] * counts[d] for _ in range(counts[d - 1])]
        for (i, j), v in cx.boundary_matrix(d).items():
            dense[i][j] = v
        ranks[d] = matrix_rank(dense)
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))


RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]

OCTAHEDRON = [
    tuple(2 * i + s for i, s in enumerate(signs))
    for signs in itertools.product((0, 1), repeat=3)
]


# -- regular complex validation ----------------------------------------------


def regular(*cells):
    """A regular complex document from (id, dim, [(face id, sign), ...])."""
    return {"format": 1, "cells": [
        {"id": cid, "dim": dim, "faces": [{"id": f, "sign": s} for f, s in faces]}
        for cid, dim, faces in cells
    ]}


def interval():
    return RegularComplex.from_json_dict(regular(
        ("a", 0, []), ("b", 0, []), ("e", 1, [("a", -1), ("b", 1)]),
    ))


def test_interval_basics():
    cx = interval()
    assert cx.f_vector() == (2, 1)
    assert cx.euler_characteristic() == 1
    assert cx.boundary_matrix(1) == {(0, 0): -1, (1, 0): 1}


def test_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate cell id 'a'"):
        RegularComplex.from_json_dict(regular(("a", 0, []), ("a", 0, [])))


def test_rejects_wrong_face_dimension():
    with pytest.raises(ValueError, match="face 'a' of 'f' has dimension 0, expected 1"):
        RegularComplex.from_json_dict(regular(("a", 0, []), ("f", 2, [("a", 1)])))


def test_rejects_nonzero_boundary_of_boundary():
    # square with one corner's sign flipped
    doc = regular(
        ("p", 0, []), ("q", 0, []), ("r", 0, []), ("s", 0, []),
        ("pq", 1, [("p", -1), ("q", 1)]),
        ("qr", 1, [("q", -1), ("r", 1)]),
        ("rs", 1, [("r", -1), ("s", 1)]),
        ("sp", 1, [("s", -1), ("p", 1)]),
        ("F", 2, [("pq", 1), ("qr", 1), ("rs", 1), ("sp", -1)]),
    )
    with pytest.raises(ValueError, match="boundary of boundary of 'F' is nonzero"):
        RegularComplex.from_json_dict(doc)


@pytest.mark.parametrize(
    "ids, faces, message",
    [
        ([["a", "b"]], [[()]], "differ in shape"),
        ([["a"], ["a"]], [[()], [((0, 1),)]], "duplicate cell id 'a'"),
        ([["b", "a"]], [[(), ()]], "dimension 0 are not sorted"),
        ([["a"], []], [[()], []], "no cells of dimension 1"),
        ([["a"]], [[((0, 1),)]], "vertex 'a' must not list faces"),
        ([["a"], ["e"]], [[()], [()]], "'e' of dimension 1 has no faces"),
        ([["a"], ["e"]], [[()], [((1, 1),)]], "'e' references unknown face 1"),
        ([["a"], ["e"]], [[()], [((-1, 1),)]], "'e' references unknown face -1"),
        ([["a"], ["e"]], [[()], [((0, 2),)]], "sign of 'a' in 'e' must be -1 or +1"),
        ([["a"], ["e"]], [[()], [((0, 1), (0, -1))]], "face 'a' repeated in cell 'e'"),
    ],
)
def test_check_rejects_bad_integer_cells(ids, faces, message):
    # the faults a builder could make, some of which a document cannot
    # express: the loader numbers its cells itself
    with pytest.raises(ValueError, match=re.escape(message)):
        RegularComplex(ids, faces).check()


def test_regular_complex_json_round_trip():
    cx = SimplicialComplex(OCTAHEDRON).to_regular()
    doc = cx.to_json_dict()
    again = RegularComplex.from_json_dict(doc)
    assert again.to_json_dict() == doc
    doc["dims"][0] += 1
    with pytest.raises(ValueError):
        RegularComplex.from_json_dict(doc)


# -- simplicial complexes ------------------------------------------------------


def test_maximality_filter():
    sc = SimplicialComplex([(0, 1), (0, 1, 2), (2,)])
    assert sc.maximal_faces == ((0, 1, 2),)


def test_faces_and_f_vector():
    sc = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert sc.f_vector() == (4, 4, 1)
    assert sc.euler_characteristic() == 1
    assert sc.faces()[1] == [(0, 1), (0, 2), (1, 2), (2, 3)]


def test_to_regular_builds_valid_chain_complex():
    reg = SimplicialComplex(RP2).to_regular()
    assert reg.f_vector() == (6, 15, 10)


def boundary_simplex(k):
    return SimplicialComplex(itertools.combinations(range(k + 2), k + 1))


@pytest.mark.parametrize(
    "base",
    [OCTAHEDRON, RP2] + [list(boundary_simplex(k).maximal_faces) for k in range(1, 7)],
    ids=["octahedron", "rp2"] + [f"boundary-simplex-{k}" for k in range(1, 7)],
)
def test_to_regular_and_subdivision_pass_check(base):
    # the criterion-6 bases, the octahedron and RP2, each subdivided once;
    # the subdivision of a regular complex is read back as regular cells
    sc = SimplicialComplex(base)
    reg = sc.to_regular()
    reg.check()
    sd = sc.subdivide()
    sd.to_regular().check()
    assert sd.f_vector()[0] == sum(reg.f_vector())


def simplex_id(simplex):
    return ".".join(map(str, simplex))


@given(
    st.lists(
        st.frozensets(st.integers(0, 11), min_size=1, max_size=4),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_simplicial_boundary_matches_to_regular(raw):
    # the integer faces sort as tuples and the cells by id, where "1.10"
    # comes before "1.2"; both matrices are compared on simplex ids
    sc = SimplicialComplex([tuple(sorted(f)) for f in raw])
    reg = sc.to_regular()
    faces = sc.faces()
    for d in range(1, sc.dim + 1):
        got = {
            (simplex_id(faces[d - 1][i]), simplex_id(faces[d][j])): v
            for (i, j), v in sc.boundary_matrix(d).items()
        }
        rows, cols = reg.ids[d - 1], reg.ids[d]
        expected = {
            (rows[i], cols[j]): v for (i, j), v in reg.boundary_matrix(d).items()
        }
        assert got == expected


def test_simplicial_json_round_trip():
    sc = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    assert SimplicialComplex.from_json_dict(sc.to_json_dict()).maximal_faces == sc.maximal_faces


# -- homology -----------------------------------------------------------------


def test_sphere_homology():
    s2 = SimplicialComplex([f for f in itertools.combinations(range(4), 3)])
    h = homology(s2)
    assert h.betti == (1, 0, 1)
    assert all(t == () for t in h.torsion)


def test_projective_plane_homology():
    h = homology(SimplicialComplex(RP2))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_circle_and_disjoint_pieces():
    circle = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    assert homology(circle).betti == (1, 1)
    two = SimplicialComplex([(0, 1), (2, 3)])
    assert homology(two).betti == (2, 0)


def test_homology_without_integer_omits_torsion(tmp_path):
    # without --integer the command prints the Betti numbers only
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(SimplicialComplex(RP2).to_json_dict()))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["homology", "--complex", str(path)]) == 0
    assert buf.getvalue() == json.dumps({"format": 1, "betti": [1, 0, 0]}, indent=2) + "\n"


@pytest.mark.parametrize("faces", [OCTAHEDRON, RP2, [(0, 1, 2, 3)], [(0, 1), (1, 2)]])
def test_homology_matches_oracle(faces):
    expect_betti, expect_torsion = simplicial_homology_oracle(faces)
    h = homology(SimplicialComplex(faces))
    assert h.betti == expect_betti
    assert h.torsion == expect_torsion


@given(
    st.lists(
        st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_homology_matches_oracle_random(raw):
    faces = [tuple(sorted(f)) for f in raw]
    expect_betti, expect_torsion = simplicial_homology_oracle(faces)
    h = homology(SimplicialComplex(faces))
    assert h.betti == expect_betti
    assert h.torsion == expect_torsion


def assert_clearing_agrees(cx):
    h = homology(cx)
    assert (h.betti, h.torsion) == reference_homology(cx)
    assert h.betti == rational_betti(cx)


@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_clearing_matches_full_reduction_random(raw):
    assert_clearing_agrees(SimplicialComplex([tuple(sorted(f)) for f in raw]))


def antipodal_quotient(dim):
    """RP^dim: the boundary of the (dim+1)-cross-polytope modulo the
    antipodal map.

    Vertex 2i+s lies on axis i, and the antipodal map sends it to
    2i+(1-s).  That keeps the axis order, so the map carries each
    sorted face onto its antipode with sign +1.  Each orbit {f, -f}
    becomes one cell, named after the lesser member, and the face
    dropping vertex i enters with sign (-1)^i.
    """

    def representative(face):
        return min(face, tuple(v ^ 1 for v in face))

    sc = SimplicialComplex([
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=dim + 1)
    ])
    cells = []
    for d, faces in sorted(sc.faces().items()):
        for f in faces:
            if representative(f) != f:
                continue
            incidence = {}
            for i in range(len(f) if d > 0 else 0):
                g = representative(f[:i] + f[i + 1 :])
                incidence[g] = incidence.get(g, 0) + (-1) ** i
            assert all(v in (-1, 1) for v in incidence.values())
            boundary = [(simplex_id(g), v) for g, v in sorted(incidence.items())]
            cells.append((simplex_id(f), d, boundary))
    return RegularComplex.from_json_dict(regular(*cells))


@pytest.mark.parametrize(
    "dim, betti, torsion",
    [(2, (1, 0, 0), ((), (2,), ())), (3, (1, 0, 0, 1), ((), (2,), (), ()))],
)
def test_clearing_keeps_torsion_of_projective_spaces(dim, betti, torsion):
    cx = antipodal_quotient(dim)
    # half the cross-polytope's faces in every dimension
    assert cx.f_vector() == {2: (3, 6, 4), 3: (4, 12, 16, 8)}[dim]
    assert_clearing_agrees(cx)
    h = homology(cx)
    assert (h.betti, h.torsion) == (betti, torsion)


@pytest.mark.parametrize("level", [3, 5, 7, 12])
def test_clearing_matches_full_reduction_on_sl2_complexes(level):
    t = QuotientTessellation(level)
    assert_clearing_agrees(t.surface_complex())
    assert_clearing_agrees(t.dual_graph())


# -- sparse elimination on plain matrices --------------------------------------


def test_sparse_reduce_pivots_on_a_unit_made_by_an_update():
    # row 0 has no +-1 entry until row 1's pivot on column 0 turns it
    # from (2, 3) into (0, 1); it then pivots too
    factors, pivot_rows = _sparse_reduce({(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, 1): 1})
    assert factors == [1, 1]
    assert pivot_rows == {0, 1}


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(-3, 3), max_size=30
    ),
    st.frozensets(st.integers(0, 6)),
)
@settings(max_examples=200, deadline=None)
def test_sparse_reduce_matches_dense_smith_form_random(entries, cleared):
    kept = [c for c in range(7) if c not in cleared]
    dense = [[entries.get((r, c), 0) for c in kept] for r in range(7)]
    factors, _ = _sparse_reduce(entries, cleared)
    assert factors == list(smith_normal_form(dense)[0])


# -- barycentric subdivision ---------------------------------------------------


def test_subdivision_counts_for_triangle():
    sd = SimplicialComplex([(0, 1, 2)]).subdivide()
    assert sd.f_vector() == (7, 12, 6)


def test_subdivision_preserves_homology():
    for faces in (OCTAHEDRON, RP2):
        base = SimplicialComplex(faces)
        sd = base.subdivide()
        assert homology(sd).betti == homology(base).betti
        assert homology(sd).torsion == homology(base).torsion


def test_double_subdivision_of_interval():
    sd2 = SimplicialComplex([(0, 1)]).subdivide().subdivide()
    assert sd2.f_vector() == (5, 4)
    assert homology(sd2).betti == (1, 0)
