"""Level-N quotients of the modular tessellation.

The hyperbolic plane carries the ideal triangulation whose cells are
the translates of the triangle (infinity, 0, 1) under the modular
group.  Modulo the principal congruence subgroup of level N, cells
correspond to cosets in PSL2(Z/N): triangles to cosets of the order-3
rotation, edges to cosets of the order-2 flip, and cusps to cosets of
the translation subgroup.  The quotient surface, its dual graph, and
genus bookkeeping all come out of exact coset arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import Cell, HomologyResult, RegularComplex

Elt = tuple[int, int, int, int]  # row-major 2x2 matrix mod N


def _canon(m: Elt, n: int) -> Elt:
    a = tuple(x % n for x in m)
    b = tuple((-x) % n for x in m)
    return min(a, b)  # type: ignore[return-value]


def _mul(x: Elt, y: Elt, n: int) -> Elt:
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


ROTATION: Elt = (0, 1, -1, 1)  # order 3: cycles the cusps infinity -> 0 -> 1
FLIP: Elt = (0, -1, 1, 0)  # order 2: reverses the edge (0, infinity)
SHIFT: Elt = (1, 1, 0, 1)  # order N: stabilizes the cusp at infinity


def psl2_elements(n: int) -> list[Elt]:
    """All of PSL2(Z/N), as canonical sign-folded matrices, by closure
    under the two standard generators."""
    if n < 3:
        raise ValueError("level must be at least 3")
    gens = [_canon(FLIP, n), _canon(SHIFT, n)]
    start = _canon((1, 0, 0, 1), n)
    seen = {start}
    frontier = [start]
    while frontier:
        g = frontier.pop()
        for h in gens:
            p = _canon(_mul(g, h, n), n)
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return sorted(seen)


class QuotientTessellation:
    """The modular triangulation of the level-N quotient surface."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.elements = psl2_elements(n)
        rot = _canon(ROTATION, n)
        self._rot_powers = [
            (1, 0, 0, 1),
            ROTATION,
            _mul(ROTATION, ROTATION, n),
        ]
        self._triangle_of = self._coset_map([(1, 0, 0, 1), rot, _mul(rot, rot, n)])
        self._edge_of = self._coset_map([(1, 0, 0, 1), FLIP])
        shift_powers = []
        p: Elt = (1, 0, 0, 1)
        for _ in range(n):
            shift_powers.append(p)
            p = _mul(p, SHIFT, n)
        self._cusp_of = self._coset_map(shift_powers)
        self.triangles = sorted(set(self._triangle_of.values()))
        self.edges = sorted(set(self._edge_of.values()))
        self.cusps = sorted(set(self._cusp_of.values()))

    def _coset_map(self, subgroup: list[Elt]) -> dict[Elt, Elt]:
        """Each element's coset g.H, named by its least member.  The
        elements are sorted and H holds the identity, so the first
        element not yet assigned is the least member of its coset."""
        out: dict[Elt, Elt] = {}
        for g in self.elements:
            if g not in out:
                for h in subgroup:
                    out[_canon(_mul(g, h, self.n), self.n)] = g
        return out

    def counts(self) -> tuple[int, int, int]:
        return (len(self.triangles), len(self.edges), len(self.cusps))

    def triangle_edges(self, g: Elt) -> list[tuple[Elt, int]]:
        """The three boundary edges of the triangle through g, each with
        the sign comparing the traversal direction against the edge's
        canonical direction (its lexicographically least lift)."""
        out = []
        for rp in self._rot_powers:
            x = _canon(_mul(g, rp, self.n), self.n)
            coset = self._edge_of[x]
            sign = 1 if x == coset else -1
            out.append((coset, sign))
        return out

    def edge_cusps(self, h: Elt) -> tuple[Elt, Elt]:
        """(tail, head) cusps of an edge in its canonical direction."""
        tail = self._cusp_of[h]
        head = self._cusp_of[_canon(_mul(h, FLIP, self.n), self.n)]
        return (tail, head)

    def surface_complex(self) -> RegularComplex:
        """The quotient surface as an oriented 2-complex.

        Each triangle's boundary is a directed 3-cycle of edges, so the
        chain condition holds by telescoping.
        """
        cusp_id = {c: f"c{i}" for i, c in enumerate(self.cusps)}
        edge_id = {e: f"e{i}" for i, e in enumerate(self.edges)}
        tri_id = {t: f"t{i}" for i, t in enumerate(self.triangles)}
        cells = [Cell(cusp_id[c], 0, ()) for c in self.cusps]
        for e in self.edges:
            tail, head = self.edge_cusps(e)
            cells.append(Cell(edge_id[e], 1, ((cusp_id[head], 1), (cusp_id[tail], -1))))
        for t in self.triangles:
            faces = tuple(
                (edge_id[e], sign) for e, sign in self.triangle_edges(t)
            )
            cells.append(Cell(tri_id[t], 2, faces))
        return RegularComplex(cells)

    def dual_graph(self) -> RegularComplex:
        """Triangle-adjacency graph: one vertex per triangle, one edge
        per tessellation edge (joining the two triangles it bounds)."""
        sides: dict[Elt, list[int]] = {e: [] for e in self.edges}
        for i, t in enumerate(self.triangles):
            for e, _sign in self.triangle_edges(t):
                sides[e].append(i)
        cells = [Cell(f"t{i}", 0, ()) for i in range(len(self.triangles))]
        for j, e in enumerate(self.edges):
            pair = sorted(sides[e])
            if len(pair) != 2:
                raise AssertionError(f"edge bounds {len(pair)} triangles")
            cells.append(
                Cell(f"d{j}", 1, ((f"t{pair[1]}", 1), (f"t{pair[0]}", -1)))
            )
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
