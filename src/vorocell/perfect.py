"""Perfect quadratic forms and the cones they cut out.

A positive-definite form A with arithmetic minimum mu and minimal
vectors M(A) is *perfect* when the linear system

    m^T Z m = mu   for every m in M(A)

determines Z uniquely among symmetric matrices.  Each perfect form spans
a full-dimensional "domain" cone generated by the rank-one matrices
q(m) = mm^T; these cones tile the positive-definite cone, neighboring
domains share facets, and walking the facet graph enumerates all
perfect forms up to unimodular equivalence.  An automorphism of a form
maps its facets onto facets whose neighbors are equivalent, so the walk
steps across one facet per orbit of the form's automorphism group.
Everything here is exact; minimal vectors, rays and facet normals are
kept as integer vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd
from operator import and_, itemgetter, mul
from typing import Optional, Sequence

from .linalg import (
    SymMatrix,
    _check_format,
    _eliminate,
    _integer,
    integer_ldlt,
)
from . import obs
from .minvec import MinData, canonical_sign, minimal_vectors, vectors_below


class NeighborStepError(RuntimeError):
    """The contiguity step across a facet failed to produce a form."""


class CatalogError(ValueError):
    """A catalog's stored data disagrees with what its forms imply."""


# -- perfection ----------------------------------------------------------------


def _value_row(m: Sequence[int], n: int) -> list[int]:
    """Coefficients of z -> m^T Z m in the upper-triangle coordinates."""
    row = []
    for i in range(n):
        for j in range(i, n):
            row.append(m[i] * m[i] if i == j else 2 * m[i] * m[j])
    return row


def is_perfect(q: SymMatrix, min_data: Optional[MinData] = None) -> bool:
    """Rank test of the minimal-vector value system.

    One elimination of the augmented system [value rows | mu] decides
    it: q is perfect when the value rows have full rank n(n+1)/2.

    ``min_data``, when given, must be :func:`minimal_vectors` of q, whose
    enumeration already proved q positive definite; without it that
    enumeration runs here and raises ValueError unless q is.
    """
    md = min_data if min_data is not None else minimal_vectors(q)
    dim = q.n * (q.n + 1) // 2
    p, d = md.mu.numerator, md.mu.denominator  # rows scaled by d: (d * row) . z = p
    _, pivots = _eliminate([d * x for x in _value_row(m, q.n)] + [p] for m in md.vectors)
    assert dim not in pivots  # q itself always solves its own system
    return len(pivots) == dim


# -- domain cones and their facets ---------------------------------------------


@dataclass(frozen=True)
class Facet:
    """A codimension-1 face of a domain cone.

    ``normal`` is the inward normal R as upper-triangle integers of
    content 1; dotted with the value row of a ray m m^T it gives m^T R m,
    zero exactly on the supporting rays and positive on the rest.
    ``ray_support`` lists those rays' indices in increasing order, and
    ``mask`` is the same set as an ``int`` with bit i set for ray i.
    """

    normal: tuple[int, ...]
    ray_support: tuple[int, ...]
    mask: int


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """``vec`` divided by the gcd of its entries, signs kept;
    ValueError for the zero vector."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(vec) if g == 1 else tuple(x // g for x in vec)


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _digits(mask: int) -> bytes:
    """The binary digits of a mask, lowest first, as bytes 0 and 1: a
    selector for :func:`itertools.compress`."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def _set_bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a mask, in increasing order."""
    return tuple(compress(range(mask.bit_length()), _digits(mask)))


def facets_of_cone(halfspaces: Sequence[Sequence[int]]) -> list[Facet]:
    """All facets of cone(rays), by double description of the dual cone.

    The rays m m^T are given by their integer value rows h_i
    (:func:`_value_row`).  The extreme rays of {y : h_i . y >= 0 for
    all i} are exactly the inward facet normals of the primal cone.
    They are built up one halfspace at a time, in index order, from a
    simplicial start.  Requires the rays to span (a full-dimensional
    cone).

    The start is one elimination of [H^T | I], H the matrix of the
    rows h_i.  Its pivot columns are the first ``dim`` independent
    halfspaces, and its row r reads [E_r H^T | E_r] for the row
    operations E, so E_r pairs to zero with every chosen halfspace but
    its own pivot.  Made primitive and positive there, the E_r are the
    start generators.

    Tight sets are ``int`` masks, bit i set when h_i is processed and
    h_i . g == 0; they are built, never recomputed:

    * a start generator is tight on every chosen halfspace but its own;
    * processing h_i sets bit i on the kept generators with h_i . g == 0;
    * a new generator g = vp gm - vm gp, from gp with vp = h_i . gp > 0
      and gm with vm = h_i . gm < 0, has the mask ``common | bit`` for
      common = mask(gp) & mask(gm): both coefficients vp and -vm are
      positive, so on a processed h_j, vp (h_j . gm) - vm (h_j . gp) is
      a sum of two terms >= 0 that vanishes exactly when both do, and
      on h_i it is vp vm - vm vp = 0.

    Only adjacent pairs are combined.  Two extreme rays of the pointed
    intermediate cone are adjacent exactly when no third generator's
    mask contains ``common`` (the combinatorial test, Fukuda–Prodon
    1996).  Adjacent rays span a 2-face, so their common tight rows
    have rank dim - 2 and ``common`` at least dim - 2 bits; a pair
    with fewer is dropped before the test.  The test ANDs, over the
    bits of ``common``, the per-row masks ``holders`` of the generators
    tight on that row, and passes when only gp and gm are left.
    ``holders`` is the transpose of the tight masks, built once per
    halfspace for the first pair that passes the bit count: written as
    binary strings of one width, last generator first, the tight masks
    have the rows' masks as their columns, last row first.

    The facet normals are the final generators, sorted by support; each
    facet keeps its final tight mask as ``mask`` and that mask's bits as
    ``ray_support``, so later layers need not rebuild either.
    """
    if not halfspaces:
        raise ValueError("need at least one ray")
    dim = len(halfspaces[0])
    count = len(halfspaces)
    reduced, pivots = _eliminate(
        list(col) + [int(r == j) for j in range(dim)]
        for r, col in enumerate(zip(*halfspaces))
    )
    if pivots[-1] >= count:  # a pivot in I: the rows do not span
        raise ValueError("ray set is not full-dimensional")
    generators = [
        _primitive(row[count:] if row[i] > 0 else [-x for x in row[count:]])
        for row, i in zip(reduced, pivots)
    ]
    start = sum(1 << i for i in pivots)
    tight = [start ^ (1 << i) for i in pivots]

    need = dim - 2
    pairs = survivors = made = 0
    peak = dim
    for idx, h in enumerate(halfspaces):
        bit = 1 << idx
        if start & bit:
            continue
        vals = [sum(map(mul, h, g)) for g in generators]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        kept_gens = [g for g, v in zip(generators, vals) if v >= 0]
        kept_tight = [t | bit if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        pairs += len(pos) * len(neg)
        negs = [(km, tight[km]) for km in neg]
        holders: Optional[list[int]] = None
        everyone = (1 << len(tight)) - 1
        for kp in pos:
            gp, tp, vp = generators[kp], tight[kp], vals[kp]
            for km, tm in negs:
                common = tp & tm
                if common.bit_count() < need:
                    continue
                survivors += 1
                if holders is None:
                    width = f"0{count}b"
                    columns = zip(*[format(t, width) for t in reversed(tight)])
                    holders = [int("".join(c), 2) for c in columns][::-1]
                containing = reduce(and_, compress(holders, _digits(common)), everyone)
                if containing == (1 << kp) | (1 << km):
                    vm = vals[km]
                    combo = [vp * a - vm * b for a, b in zip(generators[km], gp)]
                    kept_gens.append(_primitive(combo))
                    kept_tight.append(common | bit)
                    made += 1
        generators, tight = kept_gens, kept_tight
        peak = max(peak, len(generators))
    facets = [
        Facet(normal=g, ray_support=support, mask=t)
        for support, g, t in sorted(
            zip(map(_set_bits, tight), generators, tight), key=itemgetter(0)
        )
    ]
    obs.add(
        "dd",
        cones=1,
        facets=len(facets),
        pairs=pairs,
        pairs_cut_popcount=pairs - survivors,
        pairs_cut_adjacency=survivors - made,
    )
    obs.peak("dd", peak_generators=peak)
    return facets


# -- perfect form records --------------------------------------------------------


class PerfectFormRecord:
    """A perfect form with its minimal vectors m, whose m m^T are the
    rays of its domain cone in that order, and (lazily) its facets, its
    automorphism group and the group's facet orbits.

    The record keeps the form as ``integral_form``, its smallest integer
    multiple with content 1, on which all combinatorial work happens.

    Building a record does not test perfection; :meth:`require_perfect`
    does, at most once per record.  A catalog calls it on every record
    it admits (:meth:`Catalog.add`), and the enumeration and
    :meth:`Catalog.edge` on every contiguous form that matches no known
    class.  A form that does match needs no test: its witness U with
    U^T A U = B proves it perfect, as the class form A passed the test
    when it entered the catalog, and perfection is a GL_n(Z) invariant:
    x -> U x maps the minimal vectors of B onto those of A, so
    Z -> U^T Z U maps the solutions of A's value system onto B's.
    """

    def __init__(self, form: SymMatrix) -> None:
        integral = form.integral_multiple()
        self.integral_form = integral
        self.min_data = minimal_vectors(integral)
        self._perfect = False  # set once the rank test has passed
        self._facets: Optional[tuple[Facet, ...]] = None
        self._automorphisms: Optional[AutomorphismGroup] = None
        self._orbits: Optional[tuple[int, ...]] = None

    def require_perfect(self) -> None:
        """Rank-test the form's perfection, unless it already passed;
        ValueError when it is not perfect."""
        if self._perfect:
            return
        obs.add("classify", perfection_tests=1)
        if not is_perfect(self.integral_form, self.min_data):
            raise ValueError("form is not perfect")
        self._perfect = True

    @property
    def n(self) -> int:
        return self.integral_form.n

    @property
    def facets(self) -> tuple[Facet, ...]:
        if self._facets is None:
            rows = [_value_row(v, self.n) for v in self.min_data.vectors]
            self._facets = tuple(facets_of_cone(rows))
        return self._facets

    def automorphisms(self) -> AutomorphismGroup:
        """Aut of the integral form, by :func:`automorphism_group`."""
        if self._automorphisms is None:
            self._automorphisms = automorphism_group(self.integral_form)
        return self._automorphisms

    def facet_orbits(self) -> tuple[int, ...]:
        """Per facet, the least index of a facet in its Aut-orbit
        (:func:`facet_orbits`)."""
        if self._orbits is None:
            self._orbits = facet_orbits(
                self.facets, self.min_data.vectors, self.automorphisms().generators
            )
        return self._orbits

    def invariant_key(self) -> tuple:
        """Cheap unimodular invariants used to pre-filter equivalence:
        (mu, minimal-vector pairs, det), which tell apart every class of
        n <= 6.  ``Catalog.classify`` confirms each match with a witness,
        so a shared key costs an isometry search, never a wrong class."""
        return (
            self.min_data.mu,
            len(self.min_data.vectors),
            integer_ldlt(self.integral_form)[-1][-1],  # det(integral_form)
        )


def a_root_form(n: int) -> SymMatrix:
    """The Gram matrix of the A_n root lattice (2 on, -1 off the diagonal)."""
    if n < 1:
        raise ValueError("n must be positive")
    return SymMatrix(
        [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)
        ]
    )


# -- contiguity ------------------------------------------------------------------


def neighbor(record: PerfectFormRecord, facet: Facet) -> SymMatrix:
    """The second perfect form whose domain shares the given facet.

    Walks Q + rho * R outward for the facet normal R: rho grows until
    fresh vectors drop to the minimum; the smallest positive crossing
    parameter (mu - Q[v]) / R[v] over vectors with R[v] < 0 is exact.
    It runs in integers: the record's integral form has den 1, so mu,
    Q[v] and R[v] are integers, each probe Q + (p/d) R is the integer
    matrix d Q + p R over d, and the crossing parameters are compared
    by cross-multiplication.
    """
    q = record.integral_form.num
    n = len(q)
    mu = record.min_data.mu.numerator
    r = [[0] * n for _ in range(n)]
    coords = iter(facet.normal)
    for i in range(n):
        for j in range(i, n):
            r[i][j] = r[j][i] = next(coords)

    def value(m: Sequence[Sequence[int]], v: tuple[int, ...]) -> int:
        return sum(x * sum(map(mul, row, v)) for x, row in zip(v, m))

    old = set(record.min_data.vectors)
    lo = Fraction(0)
    step = Fraction(1)
    for probes in range(1, 201):
        cur = lo + step
        p, d = cur.numerator, cur.denominator
        probe = SymMatrix._over(
            [[d * a + p * b for a, b in zip(qa, ra)] for qa, ra in zip(q, r)], d
        )
        if integer_ldlt(probe) is None:
            step /= 2
            continue
        # mu in probe.num units: the values there are integers
        fresh = [
            v for v, _val in vectors_below(probe, mu * probe.den)
            if v not in old and value(r, v) < 0
        ]
        if fresh:
            # rho = gap / drop for gap = Q[v] - mu > 0 and drop = -R[v] > 0
            gap, drop = value(q, fresh[0]) - mu, -value(r, fresh[0])
            for v in fresh[1:]:
                g, h = value(q, v) - mu, -value(r, v)
                if g * drop < gap * h:
                    gap, drop = g, h
            obs.add("neighbor", steps=1, ldlt_probes=probes)
            return SymMatrix._over(
                [[drop * a + gap * b for a, b in zip(qa, ra)] for qa, ra in zip(q, r)], drop
            )
        lo = cur
        step *= 2
    raise NeighborStepError(
        f"no contiguous positive-definite form along facet {facet.ray_support}"
    )


# -- unimodular equivalence -------------------------------------------------------


_Pool = list[tuple[tuple[int, ...], tuple[int, ...]]]  # (v, A v) pairs


def _candidate_pools(a: SymMatrix, bound: int) -> dict[int, _Pool]:
    """The isometry search's candidates on ``a`` for every value up to at
    least ``bound`` (in ``a.num`` units): per value, the signed primitive
    vectors v of that value, sorted, each paired with its image A v.

    They are kept on ``a`` (``num`` and ``den`` never change, so they
    cannot go stale) together with the bound they were swept to; ``a`` is
    swept again only for a larger bound.  A value's vectors do not depend
    on the bound once it reaches the value, so each pool is the list a
    fresh sweep would give.
    """
    cached = getattr(a, "_pools", None)
    if cached is None or cached[0] < bound:
        by_value: dict[int, list[tuple[int, ...]]] = {}
        for v, val in vectors_below(a, bound):
            by_value.setdefault(val, []).extend([v, tuple(-x for x in v)])
        pools = {
            val: [(v, tuple(sum(map(mul, row, v)) for row in a.num)) for v in sorted(vs)]
            for val, vs in by_value.items()
        }
        cached = a._pools = (bound, pools)
        obs.add("classify", pool_sweeps=1)
    return cached[1]


def _first_isometry(
    a: SymMatrix, b: SymMatrix, candidates: list[_Pool]
) -> tuple[Optional[list[list[int]]], int]:
    """The first U with U^T A U = B whose column j is taken from
    ``candidates[j]``, or None, with the count of columns placed.

    Backtracks over the columns of U, in the order 0..n-1, on A.num and
    B.num: pairs of columns must reproduce the off-diagonal entries of
    B, and each candidate u of column j already has u^T A u = b_jj.
    Placing column j with vector v filters the candidate list of every
    later column jj down to the u with (A v) . u = b_j,jj (forward
    checking); v is dropped as soon as one of those lists comes up
    empty.  The filtered lists keep their order, so the search returns
    the same first witness, found in the same order, as a plain
    backtrack that checks each column only against the columns already
    placed.  Requires det A.num = det B.num != 0.
    """
    n = a.n
    nodes = 0
    cols: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # placed (v, A v)

    def place(j: int, pools: list[_Pool]) -> bool:
        """Fill columns j..n-1; pools[k] holds the (u, A u) still open for column j + k."""
        nonlocal nodes
        b_row = b.num[j]
        for v, av in pools[0]:
            narrowed = []
            for jj, pool in enumerate(pools[1:], j + 1):
                target = b_row[jj]
                kept = [pair for pair in pool if sum(map(mul, av, pair[0])) == target]
                if not kept:
                    break
                narrowed.append(kept)
            else:
                cols.append((v, av))
                nodes += 1
                if j + 1 == n or place(j + 1, narrowed):
                    return True
                cols.pop()
        return False

    if not place(0, candidates):
        return None, nodes
    conjugate = tuple(tuple(sum(map(mul, vi, avj)) for _, avj in cols) for vi, _ in cols)
    # U^T A U = B with det A = det B != 0 gives det(U)^2 = 1, so U is
    # unimodular
    if conjugate != b.num:
        raise RuntimeError("the isometry search's witness fails U^T A U = B")
    return [[cols[j][0][i] for j in range(n)] for i in range(n)], nodes


def are_equivalent(a: SymMatrix, b: SymMatrix) -> Optional[list[list[int]]]:
    """A unimodular U with U^T A U = B, or None.  Scaling is not quotiented.

    Column j of U must be a vector of A-value b_jj, so candidates come
    from one short-vector enumeration, and :func:`_first_isometry`
    searches them.  The search runs in integers, on A.num and B.num
    over their common denominator.  The candidates and their images A v
    are swept once per form A and kept on it (:func:`_candidate_pools`),
    so a catalog's class form, matched against many contiguous forms,
    is swept again only when a target b_jj exceeds every earlier one.

    A witness is a certificate of more than equivalence: every GL_n(Z)
    invariant of A, perfection among them, holds for B as well.
    """
    if a.n != b.n:
        return None
    rows_a, rows_b = integer_ldlt(a), integer_ldlt(b)
    if rows_a is None or rows_b is None:
        raise ValueError("both forms must be positive definite")
    nodes = 0  # columns placed in the search
    u = None
    try:
        # the entries of B = U^T A U and of A = U^-T B U^-1 are integral
        # combinations of each other's, so equivalent forms share den, and
        # then det(num), the last LDL^T pivot
        if a.den != b.den or rows_a[-1][-1] != rows_b[-1][-1]:
            return None
        targets = [b.num[j][j] for j in range(a.n)]
        by_value = _candidate_pools(a, max(targets))
        candidates = []
        for t in targets:
            pool = by_value.get(t)
            if pool is None:
                return None
            candidates.append(pool)
        u, nodes = _first_isometry(a, b, candidates)
        return u
    finally:
        obs.add("isometry", calls=1, hits=int(u is not None), nodes=nodes)


# -- automorphisms and facet orbits -------------------------------------------------


@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(Q) = {U in GL_n(Z) : U^T Q U = Q} by generators and order."""

    generators: tuple[list[list[int]], ...]
    order: int


def _apply(u: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in u)


def _orbit(point: tuple[int, ...], generators: Sequence[list[list[int]]]) -> set[tuple[int, ...]]:
    orbit = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for u in generators:
            w = _apply(u, v)
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def automorphism_group(q: SymMatrix) -> AutomorphismGroup:
    """Generators of Aut(Q) from a stabilizer chain on the basis vectors
    (Plesken–Souvignier, *Computing isometries of lattices*, 1997).

    Level k is G_k, the automorphisms fixing e_0..e_{k-1}; the levels
    run from k = n-1 down to 0, so the generators found so far generate
    G_{k+1}.  At level k the orbit of e_k under them grows by one search
    (:func:`_first_isometry` with one-element pools for columns 0..k)
    for each vector v of value q_kk not yet in it: a witness is an
    element of G_k sending e_k to v and joins the generators, none
    proves v outside the G_k-orbit.  The orbit is then that of G_k,
    whose stabilizer of e_k is G_{k+1}, so the generators generate G_k
    and |G_k| = |orbit| |G_{k+1}|.  Every generator is checked, as every
    witness of the search is, to satisfy U^T Q U = Q.

    An element of G_k fixes e_0..e_{k-1} and keeps inner products, so
    it sends e_k only to a v with (Q v)_i = q_ik for every i < k.  Any
    other candidate is skipped and counted as ``candidates_cut``: its
    search would fail in a forward check and change nothing, so the
    generators, their order and |Aut| are the unfiltered chain's.
    """
    n = q.n
    diagonal = [q.num[k][k] for k in range(n)]
    pools = _candidate_pools(q, max(diagonal))
    basis = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    fixed = [[(e, _apply(q.num, e))] for e in basis]
    generators: list[list[list[int]]] = []
    order = 1
    searches = cut = 0
    for k in range(n - 1, -1, -1):
        orbit = {basis[k]}
        inner = q.num[k][:k]
        for v, av in pools[diagonal[k]]:
            if v in orbit:
                continue
            if av[:k] != inner:
                cut += 1
                continue
            searches += 1
            columns = fixed[:k] + [[(v, av)]] + [pools[t] for t in diagonal[k + 1:]]
            u, _nodes = _first_isometry(q, q, columns)
            if u is not None:
                generators.append(u)
                orbit = _orbit(basis[k], generators)
        order *= len(orbit)
    obs.add("aut", searches=searches, candidates_cut=cut, generators=len(generators))
    return AutomorphismGroup(generators=tuple(generators), order=order)


def facet_orbits(
    facets: Sequence[Facet],
    vectors: Sequence[tuple[int, ...]],
    generators: Sequence[list[list[int]]],
) -> tuple[int, ...]:
    """Per facet, the least index of a facet in its orbit under the
    group the generators generate.

    A generator permutes the minimal vectors up to sign (``vectors`` are
    the canonical representatives), and so the rays and the facets of
    the domain cone.  The facets are visited in index order, and each
    one not yet reached roots an orbit, which a traversal under the
    generators fills in.  A facet is found by its support mask
    (:attr:`Facet.mask`): the image of a support is the sum of its rays'
    image bits.  A permuted support that is not a facet's raises
    RuntimeError.  Fewer generators give finer orbits, never wrong ones.
    """
    index = {v: i for i, v in enumerate(vectors)}
    by_mask = {f.mask: i for i, f in enumerate(facets)}
    images = [[1 << index[canonical_sign(_apply(u, v))] for v in vectors] for u in generators]
    roots = [-1] * len(facets)
    for root in range(len(facets)):
        if roots[root] >= 0:
            continue
        roots[root] = root
        frontier = [root]
        while frontier:
            i = frontier.pop()
            for image in images:
                j = by_mask.get(sum(map(image.__getitem__, facets[i].ray_support)))
                if j is None:
                    raise RuntimeError(f"an automorphism maps facet {i} onto no facet")
                if roots[j] < 0:
                    roots[j] = root
                    frontier.append(j)
    obs.add("aut", orbits=sum(root == i for i, root in enumerate(roots)))
    return tuple(roots)


# -- enumeration and the on-disk catalog -------------------------------------------


class Catalog:
    """Perfect-form classes of one dimension with their facet graph."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.records: list[PerfectFormRecord] = []
        self.neighbors: list[Optional[list[int]]] = []  # per class, per facet
        self.complete = False
        self._witnesses: dict[tuple[int, int], tuple[int, list[list[int]]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def classify(self, record: PerfectFormRecord) -> tuple[Optional[int], Optional[list[list[int]]]]:
        """Match a record against the known classes: (index, witness U)
        with U^T . class_form . U = record_form, or (None, None)."""
        key = record.invariant_key()
        for i, known in enumerate(self.records):
            if known.invariant_key() != key:
                continue
            u = are_equivalent(known.integral_form, record.integral_form)
            if u is not None:
                return i, u
        return None, None

    def add(self, record: PerfectFormRecord) -> int:
        """Admit a record as a new class, after its perfection test: the
        one gate of the loader and the enumeration.  Every class form is
        thus tested, which lets a witness onto it stand in for the test
        of any form it matches (see :class:`PerfectFormRecord`)."""
        record.require_perfect()
        self.records.append(record)
        self.neighbors.append(None)
        return len(self.records) - 1

    def edge(self, class_index: int, facet_index: int) -> tuple[int, list[list[int]]]:
        """Neighbor class across one facet, with the witness U such that
        U^T (neighbor class form) U = the literal contiguous form.

        The witness proves the contiguous form perfect, since the class
        form is; a contiguous form that matches no class is rank-tested
        before the catalog is called incomplete, so a form that is not
        perfect raises ValueError, not :class:`CatalogError`."""
        cached = self._witnesses.get((class_index, facet_index))
        if cached is not None:
            return cached
        rec = self.records[class_index]
        stored = self.neighbors[class_index]
        if stored is not None and len(stored) != len(rec.facets):
            raise CatalogError(
                f"class {class_index}: neighbors has {len(stored)} entries "
                f"for {len(rec.facets)} facets"
            )
        contiguous = PerfectFormRecord(neighbor(rec, rec.facets[facet_index]))
        j, u = self.classify(contiguous)
        if j is None:
            contiguous.require_perfect()
            raise CatalogError("catalog is incomplete: unknown neighbor class")
        if stored is not None and stored[facet_index] != j:
            raise CatalogError(
                f"class {class_index}: neighbors[{facet_index}] is "
                f"{stored[facet_index]}, but that facet leads to class {j}"
            )
        result = (j, u)
        self._witnesses[(class_index, facet_index)] = result
        return result

    # -- serialization ------------------------------------------------------

    @staticmethod
    def _record_core(record: PerfectFormRecord) -> dict:
        return {
            "form": record.integral_form.to_json_dict(),
            "mu": str(record.min_data.mu),
            "min_vectors": [list(v) for v in record.min_data.vectors],
        }

    @staticmethod
    def _record_hash(core: dict) -> str:
        import hashlib  # here, so that the commands that never hash skip loading OpenSSL

        blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        classes = []
        for record, nb in zip(self.records, self.neighbors):
            core = self._record_core(record)
            entry = dict(core)
            entry["neighbors"] = list(nb) if nb is not None else None
            entry["hash"] = self._record_hash(core)
            classes.append(entry)
        return {
            "format": 1,
            "n": self.n,
            "complete": self.complete,
            "classes": classes,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Catalog":
        """Load and check a catalog.  Stored neighbor lists are checked
        for type and index range here; their lengths and classes are
        checked against the computed facets in :meth:`edge`, so loading
        computes no facets."""
        _check_format(doc, "catalog")
        cat = Catalog(_integer(doc["n"], "n must be an integer"))
        classes = doc["classes"]
        if not isinstance(classes, list) or not all(isinstance(e, dict) for e in classes):
            raise ValueError("classes must be a list of objects")
        count = len(classes)
        if count == 0:
            raise ValueError("catalog has no classes")
        for index, entry in enumerate(classes):
            nb = entry["neighbors"]
            if nb is not None and not (
                isinstance(nb, list)
                and all(type(j) is int and 0 <= j < count for j in nb)
            ):
                raise ValueError(
                    f"class {index}: neighbors must be null or a list of "
                    f"class indices in [0, {count})"
                )
            core = {k: entry[k] for k in ("form", "mu", "min_vectors")}
            if Catalog._record_hash(core) != entry["hash"]:
                raise ValueError("catalog record hash mismatch")
            record = PerfectFormRecord(SymMatrix.from_json_dict(entry["form"]))
            # rank-tested first among the record's checks; a failure
            # below discards the catalog and the record with it
            cat.add(record)
            if record.n != cat.n:
                raise ValueError(
                    f"class {index}: form has dimension {record.n}, catalog has {cat.n}"
                )
            if [list(v) for v in record.min_data.vectors] != entry["min_vectors"]:
                raise ValueError("catalog record minimal vectors mismatch")
            if str(record.min_data.mu) != entry["mu"]:
                raise ValueError("catalog record minimum mismatch")
            cat.neighbors[-1] = list(nb) if nb is not None else None
        if not isinstance(doc["complete"], bool):
            raise ValueError("complete must be true or false")
        if doc["complete"] and None in cat.neighbors:
            raise ValueError("a complete catalog must list the neighbors of every class")
        cat.complete = doc["complete"]
        return cat


def enumerate_perfect_forms(
    n: int,
    limit: Optional[int] = None,
    catalog: Optional[Catalog] = None,
) -> Catalog:
    """All perfect-form classes in dimension n, by facet-graph traversal.

    Starting from the A_n root form, expand the facets of every
    discovered class in order with the contiguity step and keep one
    representative per equivalence class.  Only the least facet of each
    Aut-orbit (:meth:`PerfectFormRecord.facet_orbits`) takes the step;
    the others lead to its class.  The first facet to find a new class
    is always such a root, as its root finds the same class, so the
    catalog is the one that stepping across every facet gives.
    ``limit`` caps the class count; hitting it leaves the catalog
    flagged incomplete.  Passing a partially expanded ``catalog``
    resumes it in place.

    A contiguous form that matches a known class is perfect by its
    witness (see :class:`PerfectFormRecord`); only one that matches none
    is rank-tested, before the limit is checked, and
    :meth:`Catalog.add` then finds it tested.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if catalog is None:
        catalog = Catalog(n)
        catalog.add(PerfectFormRecord(a_root_form(n)))
    pending = [i for i, nb in enumerate(catalog.neighbors) if nb is None]
    while pending:
        index = pending.pop(0)
        record = catalog.records[index]
        edges: list[int] = []
        for facet, root in zip(record.facets, record.facet_orbits()):
            if root < len(edges):  # the facet's orbit leads to its root's class
                edges.append(edges[root])
                continue
            contiguous = PerfectFormRecord(neighbor(record, facet))
            found, _ = catalog.classify(contiguous)
            if found is None:
                contiguous.require_perfect()
                if limit is not None and len(catalog) >= limit:
                    catalog.neighbors[index] = None
                    catalog.complete = False
                    obs.add("enumerate", classes=len(catalog))
                    return catalog
                found = catalog.add(contiguous)
                pending.append(found)
            edges.append(found)
        catalog.neighbors[index] = edges
    catalog.complete = True
    obs.add("enumerate", classes=len(catalog))
    return catalog
