"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code: the program under test
only ever sees the documents these functions produce.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Levels of the sl2 ladder: primes and composites up to 31.  Fixed, so
# every run does the same coset arithmetic.
SL2_LADDER = (5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 19, 31)

# Gram matrices of the two perfect classes in dimension 4 (Voronoi,
# Korkine-Zolotarev): the A4 and D4 root lattices.
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


# -- forms for the reduce workload ------------------------------------------


def _rank_one(v):
    return [[Fraction(a * b) for b in v] for a in v]


def _add(x, y):
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _scaled(c, x):
    return [[c * a for a in row] for row in x]


def _conjugate(x, u):
    """U^T X U."""
    n = len(x)
    xu = [[sum(x[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * xu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_unimodular(rng: random.Random, n: int, length: int) -> list[list[int]]:
    """A product of ``length`` elementary transvections and sign flips."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for row in u:  # right-multiply by I + s E_ij: column j += s * column i
            row[j] += s * row[i]
        if rng.random() < 0.25:
            k = rng.randrange(n)
            for row in u:
                row[k] = -row[k]
    return u


def _positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def reduce_forms(seed: int, count: int) -> list[dict]:
    """Random positive-definite rational 4x4 forms at varying distance
    from the reduced domain.

    Three kinds take turns.  Cone forms are a positive combination of
    all ten rank-one terms q(m) over the minimal vectors m of A4, so
    they lie inside the A4 domain.  Root forms are A4 or D4 plus a few
    positive rank-one terms.  Face forms are an exact positive sum of
    four to six terms q(w) over basis and root vectors w, so they sit
    on proper faces of the tessellation.  Each is then moved by a
    random unimodular U whose word length (0 to 8) sets how many facet
    crossings the walk needs.  Returns ``{"rows": [[Fraction]],
    "length": int}`` entries.
    """
    rng = random.Random(f"reduce:{seed}")
    n = 4
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = [
        tuple(int(k == i) - int(k == j) for k in range(n))
        for i, j in itertools.combinations(range(n), 2)
    ]
    # minimal vectors of the A4 Gram matrix: e_i + ... + e_j for i <= j
    a4_minimal = [
        tuple(int(i <= k <= j) for k in range(n)) for i in range(n) for j in range(i, n)
    ]
    out = []
    for index in range(count):
        length = index % 9
        kind = index % 3
        y = [[Fraction(0)] * n for _ in range(n)]
        if kind == 0:
            for m in a4_minimal:
                y = _add(y, _scaled(_positive_fraction(rng), _rank_one(m)))
        elif kind == 1:
            y = [[Fraction(a) for a in row] for row in (A4 if index % 2 else D4)]
            for _ in range(rng.randint(1, 3)):
                v = [0] * n
                while not any(v):
                    v = [rng.randint(-1, 1) for _ in range(n)]
                y = _add(y, _scaled(_positive_fraction(rng) / 4, _rank_one(v)))
        else:
            for w in basis + rng.sample(roots, rng.randint(0, 2)):
                y = _add(y, _scaled(_positive_fraction(rng), _rank_one(w)))
        u = random_unimodular(rng, n, length)
        out.append({"rows": _conjugate(y, u), "length": length})
    return out


def form_document(rows) -> dict:
    return {"n": len(rows), "rows": [[str(x) for x in row] for row in rows]}


# -- spheres for the complexes workload ---------------------------------------


def barycentric(facets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Barycentric subdivision of a pure simplicial complex.

    New vertices are the nonempty faces; each facet F contributes one
    maximal simplex per ordering of its vertices, the chain of prefixes
    of that ordering.  Faces are numbered in order of first appearance.
    """
    ids: dict[frozenset, int] = {}
    out = []
    for f in facets:
        for perm in itertools.permutations(f):
            chain = []
            for k in range(1, len(perm) + 1):
                face = frozenset(perm[:k])
                if face not in ids:
                    ids[face] = len(ids)
                chain.append(ids[face])
            out.append(tuple(sorted(chain)))
    return out


def cross_polytope_boundary(d: int) -> list[tuple[int, ...]]:
    """Boundary of the d-dimensional cross-polytope: one facet per sign
    choice, on vertices 2i (for +e_i) and 2i+1 (for -e_i)."""
    return [
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=d)
    ]


def simplex_boundary(d: int) -> list[tuple[int, ...]]:
    """Boundary of the d-simplex: a (d-1)-sphere with d+1 facets."""
    return [tuple(v for v in range(d + 1) if v != skip) for skip in range(d + 1)]


def relabel(facets: list[tuple[int, ...]], seed: int, name: str) -> list[list[int]]:
    """Apply a seeded permutation to the vertex labels, sorted output."""
    verts = sorted({v for f in facets for v in f})
    image = list(verts)
    random.Random(f"{name}:{seed}").shuffle(image)
    perm = dict(zip(verts, image))
    return sorted(sorted(perm[v] for v in f) for f in facets)


def sphere3(seed: int) -> list[list[int]]:
    """Twice-subdivided boundary of the 4-cross-polytope: a 3-sphere
    with 16 * 24 * 24 = 9216 facets."""
    return relabel(barycentric(barycentric(cross_polytope_boundary(4))), seed, "sphere3")


def sphere5(seed: int) -> list[list[int]]:
    """Subdivided boundary of the 6-simplex: a 5-sphere with 7 * 720 =
    5040 facets."""
    return relabel(barycentric(simplex_boundary(6)), seed, "sphere5")
