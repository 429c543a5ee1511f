"""Level-N quotients of the modular tessellation.

The hyperbolic plane carries the ideal triangulation whose cells are
the translates of the triangle (infinity, 0, 1) under the modular
group.  Modulo the principal congruence subgroup of level N, cells
correspond to cosets in PSL2(Z/N): triangles to cosets of the order-3
rotation R, edges to cosets of the order-2 flip S, and cusps to cosets
of the translation subgroup generated by T.

PSL2(Z/N) is held as the sorted list of its canonical sign-folded
matrices, and each element as its index in that list.  The closure that
lists the group also records right multiplication by S and by T as two
permutations of the indices; R = (TS)^-1 = S T^-1 in PSL2, so g.R is the
T-preimage of g.S and needs no product of its own.  A coset gH is then
the orbit of g under the permutation of H's generator.  Scanning the
indices in increasing order, the first one not yet in an orbit is the
least member of a new orbit, so each orbit is named (and numbered) by
its least member, as the least matrix of the coset.  Everything after
the closure, the surface, its dual graph and the genus bookkeeping,
only looks up list entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import HomologyResult, RegularComplex

Elt = tuple[int, int, int, int]  # row-major 2x2 matrix mod N


def _canon(a: int, b: int, c: int, d: int, n: int) -> Elt:
    """The lesser of the two sign lifts of (a b; c d) mod n."""
    m = (a % n, b % n, c % n, d % n)
    p = (-a % n, -b % n, -c % n, -d % n)
    return m if m < p else p


def _closure(n: int) -> tuple[list[Elt], list[int], list[int]]:
    """PSL2(Z/N) by closure under S = (0 -1; 1 0) and T = (1 1; 0 1),
    as the sorted canonical elements and the permutations g -> g.S and
    g -> g.T of their indices.  (a b; c d).S = (b -a; d -c) and
    (a b; c d).T = (a a+b; c c+d)."""
    if n < 3:
        raise ValueError("level must be at least 3")
    start = _canon(1, 0, 0, 1, n)
    products: dict[Elt, tuple[Elt, Elt]] = {}
    seen = {start}
    frontier = [start]
    while frontier:
        g = frontier.pop()
        a, b, c, d = g
        pair = products[g] = (_canon(b, -a, d, -c, n), _canon(a, a + b, c, c + d, n))
        for p in pair:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    elements = sorted(products)
    index = {g: i for i, g in enumerate(elements)}
    flip = [index[products[g][0]] for g in elements]
    shift = [index[products[g][1]] for g in elements]
    return elements, flip, shift


def _orbits(perm: list[int]) -> tuple[list[int], list[int]]:
    """Each index's orbit number under ``perm``, and each orbit's least
    member.  Indices are scanned in increasing order, so orbits are
    numbered in the order of their least members."""
    orbit = [-1] * len(perm)
    least: list[int] = []
    for i in range(len(perm)):
        if orbit[i] < 0:
            k = len(least)
            least.append(i)
            j = i
            while orbit[j] < 0:
                orbit[j] = k
                j = perm[j]
    return orbit, least


class QuotientTessellation:
    """The modular triangulation of the level-N quotient surface."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.elements, self._flip, shift = _closure(n)
        unshift = [0] * len(shift)
        for i, j in enumerate(shift):
            unshift[j] = i
        self._rot = [unshift[j] for j in self._flip]
        self._edge_of, self.edges = _orbits(self._flip)
        self._cusp_of, self.cusps = _orbits(shift)
        self._triangle_of, self.triangles = _orbits(self._rot)

    def counts(self) -> tuple[int, int, int]:
        return (len(self.triangles), len(self.edges), len(self.cusps))

    def surface_complex(self) -> RegularComplex:
        """The quotient surface as an oriented 2-complex of cusps c<i>,
        edges e<j> and triangles t<k>.  Edge j runs from the cusp of its
        least lift h to the cusp of h.S.  The triangle through g has the
        edges of g, g.R and g.R^2, each signed by whether that element is
        the edge's least lift.

        Each triangle's boundary is a directed 3-cycle of edges, so the
        chain condition holds by telescoping.
        """
        cusp_ids, _, cusp_at = _sorted_names("c", len(self.cusps))
        edge_ids, edge_order, edge_at = _sorted_names("e", len(self.edges))
        tri_ids, tri_order, _ = _sorted_names("t", len(self.triangles))
        cusp_of, flip, rot = self._cusp_of, self._flip, self._rot
        edge_of, least = self._edge_of, self.edges
        edges = [
            ((cusp_at[cusp_of[flip[h]]], 1), (cusp_at[cusp_of[h]], -1))
            for h in (least[j] for j in edge_order)
        ]
        triangles = [
            tuple(
                (edge_at[edge_of[x]], 1 if least[edge_of[x]] == x else -1)
                for x in (g, rot[g], rot[rot[g]])
            )
            for g in (self.triangles[i] for i in tri_order)
        ]
        return RegularComplex(
            [cusp_ids, edge_ids, tri_ids], [[()] * len(cusp_ids), edges, triangles]
        )

    def dual_graph(self) -> RegularComplex:
        """Triangle-adjacency graph: one vertex t<k> per triangle, one edge
        d<j> per tessellation edge, joining the triangles of its two lifts
        h and h.S."""
        tri_ids, _, tri_at = _sorted_names("t", len(self.triangles))
        edge_ids, edge_order, _ = _sorted_names("d", len(self.edges))
        tri_of, flip = self._triangle_of, self._flip
        edges = []
        for j in edge_order:
            h = self.edges[j]
            lo, hi = sorted((tri_of[h], tri_of[flip[h]]))
            edges.append(((tri_at[hi], 1), (tri_at[lo], -1)))
        return RegularComplex([tri_ids, edge_ids], [[()] * len(tri_ids), edges])


def _sorted_names(prefix: str, count: int) -> tuple[list[str], list[int], dict[int, int]]:
    """Cells numbered 0..count-1 and named prefix + number, in sorted-id
    order (so c10 comes before c2): their ids, their numbers in that
    order, and each number's index in it."""
    order = sorted(range(count), key=str)
    return [f"{prefix}{i}" for i in order], order, {i: k for k, i in enumerate(order)}


@dataclass(frozen=True)
class GenusReport:
    level: int
    triangles: int
    edges: int
    cusps: int
    genus: int
    ratio: Fraction  # genus relative to level^3 / 24


def genus_report(tess: QuotientTessellation) -> GenusReport:
    """Genus of the level-N surface by Euler characteristic counting."""
    n = tess.n
    t, e, c = tess.counts()
    chi = c - e + t
    if chi % 2:
        raise AssertionError("odd Euler characteristic for a closed surface")
    genus = (2 - chi) // 2
    return GenusReport(
        level=n,
        triangles=t,
        edges=e,
        cusps=c,
        genus=genus,
        ratio=Fraction(24 * genus, n**3),
    )


def h1_rank(graph_homology: HomologyResult) -> int:
    """Rank of the first homology of the dual graph (its cycle rank),
    read off the graph's homology."""
    betti = graph_homology.betti
    return betti[1] if len(betti) > 1 else 0


def vcd_vanishing_check(graph_homology: HomologyResult) -> bool:
    """True when the dual graph carries nothing in degree two, read off
    the graph's homology (one Betti number per cell dimension): the
    graph is one-dimensional, so all higher homology vanishes."""
    return len(graph_homology.betti) <= 2
