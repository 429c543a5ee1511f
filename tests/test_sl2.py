"""Level-N tessellation quotients.

Oracle: the order of the projective matrix group is counted directly
by scanning all 2x2 matrices mod N for determinant one and halving
(for N >= 3 the center {I, -I} has order two).  Cell counts must then
be the index of the corresponding stabilizer subgroups, and the genus
must agree with Euler counting.  The complexes themselves are checked
against a second construction by plain coset arithmetic: generic 2x2
products mod N and explicit cosets gH.
"""

import itertools

import pytest

from vorocell.cells import RegularComplex, homology
from vorocell.sl2 import (
    QuotientTessellation,
    genus_report,
    h1_rank,
    vcd_vanishing_check,
)


# -- oracle ------------------------------------------------------------------


def brute_group_order(n: int) -> int:
    count = 0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if (a * d - b * c) % n == 1:
            count += 1
    return count // 2


def test_group_order_matches_brute_force():
    for n in range(3, 10):
        assert len(QuotientTessellation(n).elements) == brute_group_order(n)


def test_small_level_cell_counts():
    assert QuotientTessellation(3).counts() == (4, 6, 4)
    assert QuotientTessellation(4).counts() == (8, 12, 6)
    assert QuotientTessellation(5).counts() == (20, 30, 12)


def test_counts_are_stabilizer_indices():
    for n in (6, 7, 8, 9):
        t = QuotientTessellation(n)
        order = brute_group_order(n)
        triangles, edges, cusps = t.counts()
        assert triangles == order // 3
        assert edges == order // 2
        assert cusps == order // n


def test_rejects_small_levels():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            QuotientTessellation(n)


# -- genus ----------------------------------------------------------------------


def test_genus_by_euler_counting():
    for n, genus in [(3, 0), (4, 0), (5, 0), (6, 1), (7, 3), (11, 26), (13, 50)]:
        rep = genus_report(QuotientTessellation(n))
        assert rep.genus == genus, n
        chi = rep.cusps - rep.edges + rep.triangles
        assert chi == 2 - 2 * genus


def test_prime_level_genus_formula():
    # for prime N > 5 the quotient surface has genus 1 + |G|(N-6)/(12N)
    for n in (7, 11, 13):
        order = brute_group_order(n)
        expect = 1 + order * (n - 6) // (12 * n)
        assert genus_report(QuotientTessellation(n)).genus == expect


def test_klein_quartic_surface():
    t = QuotientTessellation(7)
    surface = t.surface_complex()
    assert surface.f_vector() == (24, 84, 56)
    h = homology(surface)
    assert h.betti == (1, 6, 1)
    assert h.torsion == ((), (), ())


# -- dual graph -------------------------------------------------------------------


def test_dual_graph_is_cubic():
    for n in (3, 4, 5, 7):
        t = QuotientTessellation(n)
        g = t.dual_graph()
        verts, edges = g.f_vector()
        assert verts == t.counts()[0]
        assert 2 * edges == 3 * verts
        degree = {}
        for d in range(1, 2):
            for cell in g.cells(1):
                for i, _ in cell:
                    degree[i] = degree.get(i, 0) + 1
        assert set(degree.values()) == {3}


def test_h1_identity_small_levels():
    for n in range(3, 10):
        t = QuotientTessellation(n)
        rep = genus_report(t)
        assert h1_rank(homology(t.dual_graph())) == 2 * rep.genus + rep.cusps - 1


def test_vcd_vanishing():
    for n in (3, 5, 8):
        assert vcd_vanishing_check(homology(QuotientTessellation(n).dual_graph()))


def test_surface_complex_deterministic():
    a = QuotientTessellation(6).surface_complex().to_json_dict()
    b = QuotientTessellation(6).surface_complex().to_json_dict()
    assert a == b


# -- complexes from explicit cosets ------------------------------------------------

IDENTITY = (1, 0, 0, 1)
ROTATION = (0, 1, -1, 1)  # cycles the cusps infinity -> 0 -> 1
FLIP = (0, -1, 1, 0)  # reverses the edge (0, infinity)


def matmul(x, y, n):
    (a, b, c, d), (e, f, g, h) = x, y
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def fold(m, n):
    """The lesser of the two sign lifts of m in PSL2(Z/N)."""
    return min(tuple(x % n for x in m), tuple(-x % n for x in m))


def brute_elements(n):
    return sorted({
        fold(m, n)
        for m in itertools.product(range(n), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % n == 1
    })


def coset_names(elements, subgroup, n):
    """Each element's coset gH, named by the least member of the set."""
    return {g: min(fold(matmul(g, h, n), n) for h in subgroup) for g in elements}


def coset_complexes(n):
    """(surface, dual graph) of level n, cells numbered in the order of
    their cosets' least members."""
    elements = brute_elements(n)
    rotations = [IDENTITY, ROTATION, matmul(ROTATION, ROTATION, n)]
    edge_of = coset_names(elements, [IDENTITY, FLIP], n)
    cusp_of = coset_names(elements, [(1, k, 0, 1) for k in range(n)], n)
    triangles = sorted(set(coset_names(elements, rotations, n).values()))
    edges = sorted(set(edge_of.values()))
    cusp_id = {c: f"c{i}" for i, c in enumerate(sorted(set(cusp_of.values())))}
    edge_id = {e: f"e{j}" for j, e in enumerate(edges)}
    surface = [cell(c, 0) for c in cusp_id.values()]
    for e in edges:
        tail, head = cusp_of[e], cusp_of[fold(matmul(e, FLIP, n), n)]
        surface.append(cell(edge_id[e], 1, (cusp_id[head], 1), (cusp_id[tail], -1)))
    sides = {e: [] for e in edges}
    for k, t in enumerate(triangles):
        faces = []
        for r in rotations:
            x = fold(matmul(t, r, n), n)
            faces.append((edge_id[edge_of[x]], 1 if x == edge_of[x] else -1))
            sides[edge_of[x]].append(k)
        surface.append(cell(f"t{k}", 2, *faces))
    dual = [cell(f"t{k}", 0) for k in range(len(triangles))]
    for j, e in enumerate(edges):
        lo, hi = sorted(sides[e])
        dual.append(cell(f"d{j}", 1, (f"t{hi}", 1), (f"t{lo}", -1)))
    return (
        RegularComplex.from_json_dict({"format": 1, "cells": surface}),
        RegularComplex.from_json_dict({"format": 1, "cells": dual}),
    )


def cell(cid, dim, *faces):
    """One cell of a complex document, with its (face id, sign) pairs."""
    return {"id": cid, "dim": dim, "faces": [{"id": f, "sign": s} for f, s in faces]}


def test_complexes_match_explicit_cosets():
    for n in range(3, 17):
        surface, dual = coset_complexes(n)
        t = QuotientTessellation(n)
        assert t.surface_complex().to_json_dict() == surface.to_json_dict(), n
        assert t.dual_graph().to_json_dict() == dual.to_json_dict(), n


@pytest.mark.parametrize("n", range(3, 41))
def test_built_complexes_pass_check(n):
    # the builders skip validation, so hold their output to it here
    t = QuotientTessellation(n)
    t.surface_complex().check()
    t.dual_graph().check()
