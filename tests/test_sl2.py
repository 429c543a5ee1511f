"""Level-N tessellation quotients.

Oracle: the order of the projective matrix group is counted directly
by scanning all 2x2 matrices mod N for determinant one and halving
(for N >= 3 the center {I, -I} has order two).  Cell counts must then
be the index of the corresponding stabilizer subgroups, and the genus
must agree with Euler counting.
"""

import itertools

import pytest

from vorocell.cells import homology
from vorocell.sl2 import (
    QuotientTessellation,
    genus_report,
    h1_rank,
    psl2_elements,
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
        assert len(psl2_elements(n)) == brute_group_order(n)


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
            for (i, j), _ in g.boundary_matrix(1).items():
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
