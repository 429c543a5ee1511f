"""Cell complexes, subdivision and homology.

The homology oracle builds chain boundary matrices straight from the
textbook definition (alternating-sign faces of sorted simplices) and
reduces them with sympy — nothing from the module's reduction code is
reused.  A second reference, ``reference_homology``, goes through the
string-id cells of ``to_regular`` (in ``cell_helpers``) and reduces
every boundary in full, each degree on its own, by the sparse
unit-pivot elimination of ``sparse_reference``.  A third,
``rational_betti``, takes the ranks of the dense boundary matrices over
the rationals; by universal coefficients its Betti numbers are the
integer ones.  A fourth, ``cleared_homology``, is ``homology`` without
its coreduction matching: every ``cells(d)`` reduced by that
elimination from the top down, with clearing across degrees; beside it,
``assert_matching_agrees`` computes every Morse boundary from both
sides, by ``_image_columns`` on the boundary and, transposed, on the
signed coboundary, and requires the same matrix.  The
integer cells a simplicial complex builds itself are compared with the
textbook boundary in ``test_simplicial_cells_match_textbook_boundary``.
The projective spaces built by ``antipodal_quotient`` are the regular
complexes that carry torsion, and an edge on a single vertex is the one
input whose Morse boundary holds a unit entry.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random

import pytest
import sympy
from cell_helpers import assert_loads_back, reference_cells, reference_faces, to_regular
from hypothesis import given, settings
from hypothesis import strategies as st
from sparse_reference import _sparse_reduce

from vorocell import cells, cli, obs
from vorocell.cells import (
    RegularComplex,
    SimplicialComplex,
    _coreduce,
    _image_columns,
    barycentric_subdivision,
    homology,
)
from vorocell.linalg import smith_normal_form
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
        cx = to_regular(cx)
    counts = cx.f_vector()
    top = len(counts) - 1
    factors = [[] for _ in range(top + 2)]
    for d in range(1, top + 1):
        factors[d], _ = _sparse_reduce(cx.cells(d))
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
        for j, cell in enumerate(cx.cells(d)):
            for i, v in cell:
                dense[i][j] = v
        ranks[d] = sympy.Matrix(dense).rank()
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))


RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]

# RP^2 with a circle wedged on at a vertex: the matching leaves critical
# (1, 2, 1), so degree 2 takes the coimage side, and its one entry is the
# torsion factor 2
RP2_WEDGE_CIRCLE = RP2 + [(0, 6), (6, 7), (7, 0)]

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
    assert cx.cells(1) == [((0, -1), (1, 1))]


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


def test_regular_complex_json_round_trip():
    cx = to_regular(SimplicialComplex(OCTAHEDRON))
    doc = cx.to_json_dict()
    again = RegularComplex.from_json_dict(doc)
    assert again.to_json_dict() == doc
    doc["dims"][0] += 1
    with pytest.raises(ValueError):
        RegularComplex.from_json_dict(doc)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "cx",
    [to_regular(SimplicialComplex(OCTAHEDRON)), QuotientTessellation(7).surface_complex()],
    ids=["octahedron", "sl2-surface-7"],
)
def test_loader_ignores_cell_order(cx, seed):
    # the loader sorts the cells before it numbers them, so a cell may
    # list faces that the document gives after it
    doc = cx.to_json_dict()
    random.Random(seed).shuffle(doc["cells"])
    again = RegularComplex.from_json_dict(doc)
    assert again.ids == cx.ids
    assert again.faces == cx.faces


# -- simplicial complexes ------------------------------------------------------


def test_maximality_filter():
    sc = SimplicialComplex([(0, 1), (0, 1, 2), (2,)])
    assert sc.maximal_faces == ((0, 1, 2),)


def test_faces_and_f_vector():
    sc = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert sc.f_vector() == (4, 4, 1)
    assert sc.euler_characteristic() == 1
    assert sc.faces()[1] == [(0, 1), (0, 2), (1, 2), (2, 3)]


@given(
    st.lists(
        st.frozensets(st.integers(0, 9), min_size=1, max_size=6),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_faces_match_the_union_over_maximal_faces(raw):
    # faces() builds each dimension from the one above; the brute force
    # takes every combination of every maximal face.  Maximal faces of
    # mixed sizes make most of these complexes non-pure.
    sc = SimplicialComplex([tuple(sorted(f)) for f in raw])
    expected = {
        k - 1: sorted(set().union(*(itertools.combinations(f, k) for f in sc.maximal_faces)))
        for k in range(1, sc.dim + 2)
    }
    got = sc.faces()
    assert list(got) == list(expected)
    assert got == expected


@st.composite
def mixed_complexes(draw):
    """Maximal faces of mixed sizes, some faces inside others, which the
    constructor drops, and shuffled labels, negative ones too, so that
    neither the faces nor their vertices come in sorted order."""
    faces = draw(st.lists(
        st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True),
        min_size=1, max_size=10,
    ))
    inside = [f[: draw(st.integers(1, len(f)))] for f in faces if draw(st.booleans())]
    labels = draw(st.lists(st.integers(-40, 40), min_size=12, max_size=12, unique=True))
    return draw(st.permutations([[labels[v] for v in f] for f in faces + inside]))


@given(mixed_complexes())
@settings(max_examples=150, deadline=None)
def test_face_tables_match_the_set_and_sort_reference(raw):
    sc = SimplicialComplex(raw)
    faces = reference_faces(sc)
    assert list(sc.faces()) == list(faces)
    assert sc.faces() == faces
    assert sc.f_vector() == tuple(map(len, faces.values()))
    for d in faces:
        cells = sc.cells(d)
        assert cells == reference_cells(sc, d)
        assert sc.cells(d) == cells  # a second call reads the same table


def test_to_regular_builds_valid_chain_complex():
    reg = to_regular(SimplicialComplex(RP2))
    assert reg.f_vector() == (6, 15, 10)


def boundary_simplex(k):
    return SimplicialComplex(itertools.combinations(range(k + 2), k + 1))


# sha256 of json.dumps(barycentric_subdivision(sc).to_json_dict()) per
# base; every base has labels below 10, so faces() order and string-id
# order agree and the vertex numbering is the (dim, id) one of earlier
# releases
SUBDIVISION_SHA256 = {
    "octahedron": "0f64e4a6d8dfe6bb46dff4cf0ad33140a011d415a3d389df4041a4d4b69f3d49",
    "rp2": "b76c4e8c05b008d765df127c7d9ac91cecb3f20ae5ade0c67280dce336b7db50",
    "boundary-simplex-1": "0e2eedc7c134f55de30151dbd282f00c6806e6e936a2f159af53debd8e8f123a",
    "boundary-simplex-2": "cd2bd58f18dd7f6a578cd3bc36cf097e55c23f07a99e55668aa14405fe2e9df0",
    "boundary-simplex-3": "909317546ce9f42b4aa92ab6e47ca377a27238cf621e860059540c663f6123c2",
    "boundary-simplex-4": "1cefdcd853991867960fc3ee1c1013e29089a026270d23bd3d8aa877a9f345a9",
    "boundary-simplex-5": "6ed0a29f2a60883b1d4211e539398db3e378cae746d29cc939fcae0f55cc8c18",
    "boundary-simplex-6": "80677ba43addedc628d120f58e302130d49ed257464546891052f5add193e85a",
}


@pytest.mark.parametrize(
    "base, digest",
    [(OCTAHEDRON, SUBDIVISION_SHA256["octahedron"]), (RP2, SUBDIVISION_SHA256["rp2"])]
    + [
        (list(boundary_simplex(k).maximal_faces), SUBDIVISION_SHA256[f"boundary-simplex-{k}"])
        for k in range(1, 7)
    ],
    ids=["octahedron", "rp2"] + [f"boundary-simplex-{k}" for k in range(1, 7)],
)
def test_to_regular_and_subdivision_pass_check(base, digest):
    # the criterion-6 bases, the octahedron and RP2, each subdivided once;
    # the subdivision of a regular complex is read back as regular cells
    sc = SimplicialComplex(base)
    reg = to_regular(sc)
    assert_loads_back(reg)
    sd = barycentric_subdivision(sc)
    assert_loads_back(to_regular(sd))
    assert sd.f_vector()[0] == sum(reg.f_vector())
    assert hashlib.sha256(json.dumps(sd.to_json_dict()).encode()).hexdigest() == digest


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
    # comes before "1.2"; both boundaries are compared on simplex ids
    sc = SimplicialComplex([tuple(sorted(f)) for f in raw])
    reg = to_regular(sc)
    faces = sc.faces()
    for d in range(1, sc.dim + 1):
        got = {
            (simplex_id(faces[d - 1][i]), simplex_id(faces[d][j])): v
            for j, cell in enumerate(sc.cells(d))
            for i, v in cell
        }
        rows, cols = reg.ids[d - 1], reg.ids[d]
        expected = {
            (rows[i], cols[j]): v for j, cell in enumerate(reg.cells(d)) for i, v in cell
        }
        assert got == expected


def textbook_boundary(faces, d):
    """The d-th boundary from the definition: the face dropping vertex
    k of a sorted simplex enters with sign (-1)^k, rows and columns
    indexed in sorted-tuple order; a dict (row, column) -> entry."""
    rows = {f: i for i, f in enumerate(sorted(f for f in faces if len(f) == d))}
    cols = sorted(f for f in faces if len(f) == d + 1)
    return {
        (rows[s[:k] + s[k + 1 :]], j): (-1) ** k
        for j, s in enumerate(cols)
        for k in range(len(s))
    }


@given(
    st.lists(
        st.frozensets(st.integers(0, 11), min_size=1, max_size=4),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_simplicial_cells_match_textbook_boundary(raw):
    sc = SimplicialComplex([tuple(sorted(f)) for f in raw])
    faces = set()
    for f in sc.maximal_faces:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    assert sc.cells(0) == [()] * sum(len(f) == 1 for f in faces)
    for d in range(1, sc.dim + 1):
        got = {(i, j): v for j, cell in enumerate(sc.cells(d)) for i, v in cell}
        assert got == textbook_boundary(faces, d)
        assert all(len(cell) == d + 1 for cell in sc.cells(d))
    for d in range(2, sc.dim + 1):  # the boundary of a boundary vanishes
        below = sc.cells(d - 1)
        for cell in sc.cells(d):
            acc = {}
            for k, sign in cell:
                for m, s in below[k]:
                    acc[m] = acc.get(m, 0) + sign * s
            assert not any(acc.values())


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


def assert_full_reduction_agrees(cx):
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
    assert_full_reduction_agrees(SimplicialComplex([tuple(sorted(f)) for f in raw]))


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
    assert_full_reduction_agrees(cx)
    h = homology(cx)
    assert (h.betti, h.torsion) == (betti, torsion)


@pytest.mark.parametrize("level", [3, 5, 7, 12])
def test_clearing_matches_full_reduction_on_sl2_complexes(level):
    t = QuotientTessellation(level)
    assert_full_reduction_agrees(t.surface_complex())
    assert_full_reduction_agrees(t.dual_graph())


# -- coreduction matching ------------------------------------------------------


def cleared_homology(cx):
    """Betti numbers and torsion with no matching: every ``cells(d)``
    reduced from the top down, with clearing across degrees."""
    counts = cx.f_vector()
    top = len(counts) - 1
    factors = [[] for _ in range(top + 2)]
    cleared = set()
    for d in range(top, 0, -1):
        factors[d], cleared = _sparse_reduce(cx.cells(d), cleared)
    betti = tuple(
        counts[d] - len(factors[d]) - len(factors[d + 1]) for d in range(top + 1)
    )
    torsion = tuple(tuple(f for f in factors[d + 1] if f > 1) for d in range(top + 1))
    return betti, torsion


def morse_sides(cx):
    """Per degree with critical cells in both d and d - 1, the Morse
    boundary from the images of the boundary and, transposed, from the
    images of the signed coboundary with the pairs reversed, each as
    {(row, column): value} without zeros."""
    critical, pairs, cofaces = _coreduce(cx)
    sides = {}
    for d in range(1, len(critical)):
        if critical[d] and critical[d - 1]:
            faces = cx.cells(d)
            coboundary = [
                [(x, s) for x in up for f, s in faces[x] if f == k]
                for k, up in enumerate(cofaces[d - 1])
            ]
            by_image = _image_columns(faces, pairs[d], critical[d], critical[d - 1])
            by_coboundary = _image_columns(
                coboundary, [(b, a) for a, b in reversed(pairs[d])], critical[d - 1], critical[d]
            )
            sides[d] = (
                {(r, c): v for c, column in enumerate(by_image) for r, v in column if v},
                {(r, c): v for r, row in enumerate(by_coboundary) for c, v in row if v},
            )
    return sides


def assert_matching_agrees(cx):
    h = homology(cx)
    assert (h.betti, h.torsion) == cleared_homology(cx)
    for d, (by_image, by_coimage) in morse_sides(cx).items():
        assert by_image == by_coimage, d


def cubical_complex(cubes):
    """The regular complex of elementary cubes in Z^3 with all their
    faces.  A cube is one interval (a, a) or (a, a + 1) per axis, and
    the face at the far (near) end of its i-th unit interval enters with
    sign +(-1)^k (-(-1)^k), k the unit intervals before the i-th."""

    def name(cube):
        return "c" + "_".join(f"{a}{b}" for a, b in cube)

    closure, todo = {}, list(cubes)
    while todo:
        cube = todo.pop()
        if cube in closure:
            continue
        faces, k = [], 0
        for i, (a, b) in enumerate(cube):
            if a != b:
                for end, sign in ((a, -1), (b, 1)):
                    face = cube[:i] + ((end, end),) + cube[i + 1 :]
                    faces.append((face, sign * (-1) ** k))
                    todo.append(face)
                k += 1
        closure[cube] = faces
    return RegularComplex.from_json_dict(regular(*(
        (name(cube), sum(a != b for a, b in cube), [(name(f), s) for f, s in faces])
        for cube, faces in closure.items()
    )))


@given(
    st.lists(
        st.frozensets(st.integers(0, 8), min_size=1, max_size=5),
        min_size=1,
        max_size=14,
    )
)
@settings(max_examples=80, deadline=None)
def test_matching_matches_cleared_reduction_on_random_simplicial_complexes(raw):
    sc = SimplicialComplex([tuple(sorted(f)) for f in raw])
    assert_matching_agrees(sc)
    assert_matching_agrees(to_regular(sc))  # the same cells in string-id order


@given(
    st.lists(
        st.tuples(*[st.integers(0, 2).flatmap(
            lambda a: st.sampled_from([(a, a), (a, a + 1)])
        )] * 3),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=80, deadline=None)
def test_matching_matches_cleared_reduction_on_random_cubical_complexes(cubes):
    assert_matching_agrees(cubical_complex(cubes))


def test_cubical_complex_builder():
    square = cubical_complex([((0, 1), (0, 1), (0, 0))])
    assert square.f_vector() == (4, 4, 1)
    annulus = cubical_complex([  # the 3 x 3 ring of squares round a hole
        ((x, x + 1), (y, y + 1), (0, 0))
        for x in range(3) for y in range(3) if (x, y) != (1, 1)
    ])
    assert homology(annulus).betti == (1, 1, 0)
    assert homology(cubical_complex([((0, 1), (0, 1), (0, 1))])).betti == (1, 0, 0, 0)


def test_matching_on_a_cell_with_one_vertex():
    # the loader accepts an edge whose boundary is a single vertex; that
    # vertex is critical, so the edge is too, and the Morse boundary
    # pairs them off
    cx = RegularComplex.from_json_dict(regular(("v", 0, []), ("e", 1, [("v", 1)])))
    assert_matching_agrees(cx)
    # that boundary is the 1 x 1 matrix (1), handed to the Smith form
    with obs.collecting() as book:
        assert homology(cx).betti == (0, 0)
    assert book == {"homology": {
        "critical": 2, "matched": 0, "residual_rows": 1, "residual_cols": 1,
    }}


@pytest.mark.parametrize(
    "cx, torsion",
    [
        (SimplicialComplex(RP2), ((), (2,), ())),
        (antipodal_quotient(2), ((), (2,), ())),
        (antipodal_quotient(3), ((), (2,), (), ())),
        (SimplicialComplex(RP2_WEDGE_CIRCLE), ((), (2,), ())),
        (to_regular(SimplicialComplex(RP2_WEDGE_CIRCLE)), ((), (2,), ())),
    ],
    ids=["rp2-simplicial", "rp2", "rp3", "rp2-wedge-circle", "rp2-wedge-circle-regular"],
)
def test_matching_keeps_torsion_of_projective_spaces(cx, torsion):
    assert_matching_agrees(cx)
    assert homology(cx).torsion == torsion


@pytest.mark.parametrize(
    "cx, result, counters",
    [
        (QuotientTessellation(12).surface_complex(),
         ((1, 50, 1), ((), (), ())),
         {"unit_pivots": 238, "row_updates": 615}),
        (barycentric_subdivision(barycentric_subdivision(
            SimplicialComplex(itertools.combinations(range(5), 4))
        )),
         ((1, 0, 0, 1), ((), (), (), ())),
         {"unit_pivots": 6299, "row_updates": 23878}),
    ],
    ids=["surface12", "twice-subdivided-boundary-4-simplex"],
)
def test_sparse_reduce_on_whole_complexes(cx, result, counters):
    # elimination with no matching in front of it, so every free face of
    # the complex goes through the unit-pivot path; every factor is 1
    with obs.collecting() as book:
        assert cleared_homology(cx) == result
    assert book == {"homology": {**counters, "residual_rows": 0, "residual_cols": 0}}


# the levels of the benchmark's sl2 ladder
SL2_LADDER = (5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 19, 31)


@pytest.mark.parametrize("level", SL2_LADDER)
def test_matching_matches_cleared_reduction_on_sl2_surfaces(level):
    t = QuotientTessellation(level)
    # the surface as `sl2 --emit` writes it and `homology` loads it
    assert_matching_agrees(RegularComplex.from_json_dict(t.surface_complex().to_json_dict()))
    assert_matching_agrees(t.dual_graph())


@pytest.mark.parametrize(
    "cx, counters",
    [
        (barycentric_subdivision(SimplicialComplex(itertools.combinations(range(5), 4))),
         {"critical": 2, "matched": 269}),
        (barycentric_subdivision(barycentric_subdivision(SimplicialComplex(OCTAHEDRON))),
         {"critical": 2, "matched": 432}),
    ],
    ids=["subdivided-boundary-4-simplex", "twice-subdivided-octahedron"],
)
def test_matching_leaves_one_critical_cell_per_sphere_betti_number(cx, counters):
    # a critical vertex and a critical top cell, and nothing for the
    # Smith form: every other cell is matched
    with obs.collecting() as book:
        h = homology(cx)
    assert sum(h.betti) == 2
    assert book == {"homology": {**counters, "residual_rows": 0, "residual_cols": 0}}
    assert 2 * counters["matched"] + counters["critical"] == sum(cx.f_vector())


# -- the side of the Morse boundary -----------------------------------------------


@pytest.mark.parametrize(
    "cx, sides",
    [
        # critical (1, 2002, 1): the triangle's side, then the vertex's
        (QuotientTessellation(31).surface_complex(), ["coimage", "image"]),
        (SimplicialComplex(RP2_WEDGE_CIRCLE), ["coimage", "image"]),
        # critical (1, 1, 1, 1): a tie in every degree takes the images
        (antipodal_quotient(3), ["image", "image", "image"]),
        # critical (1, 0, 1): no degree has critical cells on both sides
        (QuotientTessellation(5).surface_complex(), []),
    ],
    ids=["surface31", "rp2-wedge-circle", "rp3", "surface5"],
)
def test_morse_boundary_takes_the_side_with_fewer_critical_cells(monkeypatch, cx, sides):
    """The side is read off the arguments ``_image_columns`` receives:
    the boundary's pairs with columns on the critical d-cells, or the
    coboundary's reversed pairs with columns on the critical
    (d-1)-cells."""
    critical, pairs, _ = _coreduce(cx)
    degrees = iter(d for d in range(len(critical) - 1, 0, -1) if critical[d] and critical[d - 1])
    taken = []

    def record(faces, given, columns, rows, _real=cells._image_columns):
        d = next(degrees)
        reverse = [(b, a) for a, b in reversed(pairs[d])]
        if (given, columns, rows) == (pairs[d], critical[d], critical[d - 1]):
            taken.append("image")
        elif (given, columns, rows) == (reverse, critical[d - 1], critical[d]):
            taken.append("coimage")
        else:
            taken.append("neither")
        return _real(faces, given, columns, rows)

    monkeypatch.setattr(cells, "_image_columns", record)
    homology(cx)
    assert taken == sides  # degrees from the top down


# -- sparse elimination on plain matrices --------------------------------------


def test_sparse_reduce_pivots_on_a_unit_made_by_an_update():
    # row 0 has no +-1 entry until row 1's pivot on column 0 turns it
    # from (2, 3) into (0, 1); it then pivots too
    factors, pivot_rows = _sparse_reduce([((0, 2), (1, 1)), ((0, 3), (1, 1))])
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
    columns = [[] for _ in range(7)]
    for (r, c), v in entries.items():
        columns[c].append((r, v))
    factors, _ = _sparse_reduce(columns, cleared)
    assert factors == list(smith_normal_form(dense))


# -- barycentric subdivision ---------------------------------------------------


def test_subdivision_counts_for_triangle():
    sd = barycentric_subdivision(SimplicialComplex([(0, 1, 2)]))
    assert sd.f_vector() == (7, 12, 6)


def test_subdivision_preserves_homology():
    for faces in (OCTAHEDRON, RP2):
        base = SimplicialComplex(faces)
        sd = barycentric_subdivision(base)
        assert homology(sd).betti == homology(base).betti
        assert homology(sd).torsion == homology(base).torsion


def test_double_subdivision_of_interval():
    sd2 = barycentric_subdivision(barycentric_subdivision(SimplicialComplex([(0, 1)])))
    assert sd2.f_vector() == (5, 4)
    assert homology(sd2).betti == (1, 0)
