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

from .cells import Cell, HomologyResult, RegularComplex

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


def psl2_elements(n: int) -> list[Elt]:
    """All of PSL2(Z/N), as sorted canonical sign-folded matrices."""
    return _closure(n)[0]


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
        self.triangles = _orbits(self._rot)[1]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.triangles), len(self.edges), len(self.cusps))

    def triangle_edges(self, g: int) -> list[tuple[int, int]]:
        """The three boundary edges of the triangle through element g,
        each as its edge number with the sign comparing the traversal
        direction g, g.R, g.R^2 against the edge's canonical direction
        (its least lift)."""
        rot, edge_of, edges = self._rot, self._edge_of, self.edges
        out = []
        for x in (g, rot[g], rot[rot[g]]):
            e = edge_of[x]
            out.append((e, 1 if edges[e] == x else -1))
        return out

    def edge_cusps(self, e: int) -> tuple[int, int]:
        """(tail, head) cusp numbers of edge e in its canonical direction."""
        h = self.edges[e]
        return (self._cusp_of[h], self._cusp_of[self._flip[h]])

    def surface_complex(self) -> RegularComplex:
        """The quotient surface as an oriented 2-complex.

        Each triangle's boundary is a directed 3-cycle of edges, so the
        chain condition holds by telescoping.
        """
        cells = [Cell(f"c{i}", 0, ()) for i in range(len(self.cusps))]
        for j in range(len(self.edges)):
            tail, head = self.edge_cusps(j)
            cells.append(Cell(f"e{j}", 1, ((f"c{head}", 1), (f"c{tail}", -1))))
        for i, t in enumerate(self.triangles):
            faces = tuple((f"e{e}", sign) for e, sign in self.triangle_edges(t))
            cells.append(Cell(f"t{i}", 2, faces))
        return RegularComplex(cells)

    def dual_graph(self) -> RegularComplex:
        """Triangle-adjacency graph: one vertex per triangle, one edge
        per tessellation edge (joining the two triangles it bounds)."""
        sides: list[list[int]] = [[] for _ in self.edges]
        for i, t in enumerate(self.triangles):
            for e, _sign in self.triangle_edges(t):
                sides[e].append(i)
        cells = [Cell(f"t{i}", 0, ()) for i in range(len(self.triangles))]
        for j, pair in enumerate(sides):
            if len(pair) != 2:
                raise AssertionError(f"edge bounds {len(pair)} triangles")
            lo, hi = sorted(pair)
            cells.append(Cell(f"d{j}", 1, ((f"t{hi}", 1), (f"t{lo}", -1))))
        return RegularComplex(cells)


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
