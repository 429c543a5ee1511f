"""Perfect quadratic forms and the cones they cut out.

A positive-definite form A with arithmetic minimum mu and minimal
vectors M(A) is *perfect* when the linear system

    m^T Z m = mu   for every m in M(A)

determines Z uniquely among symmetric matrices.  Each perfect form spans
a full-dimensional "domain" cone generated by the rank-one matrices
q(m) = mm^T; these cones tile the positive-definite cone, neighboring
domains share facets, and walking the facet graph enumerates all
perfect forms up to unimodular equivalence.  Everything here is exact;
minimal vectors, rays and facet normals are kept as integer vectors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .linalg import (
    SymMatrix,
    _eliminate,
    _integer,
    _null_space,
    integer_ldlt,
)
from . import obs
from .minvec import MinData, minimal_vectors, vectors_below


class NeighborStepError(RuntimeError):
    """The contiguity step across a facet failed to produce a form."""


class CatalogError(ValueError):
    """A catalog's stored data disagrees with what its forms imply."""


# -- perfection ----------------------------------------------------------------


@dataclass(frozen=True)
class PerfectionResult:
    perfect: bool
    kernel: tuple[SymMatrix, ...]  # directions left free when not perfect

    def __bool__(self) -> bool:
        return self.perfect


def _value_row(m: Sequence[int], n: int) -> list[int]:
    """Coefficients of z -> m^T Z m in the upper-triangle coordinates."""
    row = []
    for i in range(n):
        for j in range(i, n):
            row.append(m[i] * m[i] if i == j else 2 * m[i] * m[j])
    return row


def is_perfect(q: SymMatrix, min_data: Optional[MinData] = None) -> PerfectionResult:
    """Rank test of the minimal-vector value system, with kernel certificate.

    One elimination of the augmented system [value rows | mu] decides
    it: q is perfect when the value rows have full rank n(n+1)/2.  The
    kernel, the directions left free, is built only when they do not.

    ``min_data``, when given, must be :func:`minimal_vectors` of q, whose
    enumeration already proved q positive definite; without it that
    enumeration runs here and raises ValueError unless q is.
    """
    md = min_data if min_data is not None else minimal_vectors(q)
    dim = q.n * (q.n + 1) // 2
    p, d = md.mu.numerator, md.mu.denominator  # rows scaled by d: (d * row) . z = p
    reduced, pivots = _eliminate(
        [d * x for x in _value_row(m, q.n)] + [p] for m in md.vectors
    )
    assert dim not in pivots  # q itself always solves its own system
    if len(pivots) == dim:
        return PerfectionResult(perfect=True, kernel=())
    kernel = tuple(SymMatrix.from_upper(q.n, vec) for vec in _null_space(reduced, pivots, dim))
    return PerfectionResult(perfect=False, kernel=kernel)


# -- domain cones and their facets ---------------------------------------------


@dataclass(frozen=True)
class Facet:
    """A codimension-1 face of a domain cone.

    ``normal`` is the inward normal R as upper-triangle integers of
    content 1; dotted with the value row of a ray m m^T it gives m^T R m,
    zero exactly on the supporting rays and positive on the rest.
    """

    normal: tuple[int, ...]
    ray_support: tuple[int, ...]


def _reduce_content(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in vec)


def _bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


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
    with fewer is dropped before the test.  The test itself ANDs, over
    the bits of ``common``, the masks over generator indices of the
    generators tight on each row, and passes when only gp and gm are
    left.  The facet normals are the final generators and their
    supports the bits of the final masks.
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
        _reduce_content(row[count:] if row[i] > 0 else [-x for x in row[count:]])
        for row, i in zip(reduced, pivots)
    ]
    start = 0
    for i in pivots:
        start |= 1 << i
    tight = [start ^ (1 << i) for i in pivots]

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
        # per halfspace, the mask of the generators tight on it; built for
        # the first pair that passes the popcount prefilter
        holders: Optional[list[int]] = None
        everyone = (1 << len(tight)) - 1
        for kp in pos:
            gp, tp, vp = generators[kp], tight[kp], vals[kp]
            for km in neg:
                common = tp & tight[km]
                if common.bit_count() < dim - 2:
                    continue
                survivors += 1
                if holders is None:
                    holders = [0] * count
                    for k, t in enumerate(tight):
                        for i in _bit_indices(t):
                            holders[i] |= 1 << k
                containing = everyone
                for i in _bit_indices(common):
                    containing &= holders[i]
                if containing == (1 << kp) | (1 << km):
                    vm = vals[km]
                    combo = [vp * a - vm * b for a, b in zip(generators[km], gp)]
                    kept_gens.append(_reduce_content(combo))
                    kept_tight.append(common | bit)
                    made += 1
        generators, tight = kept_gens, kept_tight
        peak = max(peak, len(generators))
    facets = sorted(
        (Facet(normal=g, ray_support=tuple(_bit_indices(t))) for g, t in zip(generators, tight)),
        key=lambda f: f.ray_support,
    )
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
    rays of its domain cone in that order, and (lazily) its facets.

    The record keeps the form as ``integral_form``, its smallest integer
    multiple with content 1, on which all combinatorial work happens.
    """

    def __init__(self, form: SymMatrix) -> None:
        integral = form.integral_multiple()
        md = minimal_vectors(integral)
        if not is_perfect(integral, md).perfect:
            raise ValueError("form is not perfect")
        self.integral_form = integral
        self.min_data = md
        self._facets: Optional[tuple[Facet, ...]] = None
        self._invariant: Optional[tuple] = None

    @property
    def n(self) -> int:
        return self.integral_form.n

    @property
    def facets(self) -> tuple[Facet, ...]:
        if self._facets is None:
            rows = [_value_row(v, self.n) for v in self.min_data.vectors]
            self._facets = tuple(facets_of_cone(rows))
        return self._facets

    def invariant_key(self) -> tuple:
        """Cheap unimodular invariants used to pre-filter equivalence."""
        if self._invariant is not None:
            return self._invariant
        int_rows = self.integral_form.num  # over den = 1
        vectors = self.min_data.vectors
        images = [tuple(sum(map(mul, row, v)) for row in int_rows) for v in vectors]
        products = sorted(
            abs(sum(map(mul, a, im)))
            for k, a in enumerate(vectors)
            for im in images[k + 1 :]
        )
        self._invariant = (
            self.min_data.mu,
            len(self.min_data.vectors),
            integer_ldlt(self.integral_form)[-1][-1],  # det(int_rows)
            tuple(products),
        )
        return self._invariant


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
    """
    q = record.integral_form
    n = q.n
    mu = record.min_data.mu
    r = SymMatrix.from_upper(n, facet.normal)
    old = set(record.min_data.vectors)

    def r_value(v: tuple[int, ...]) -> int:
        return sum(map(mul, _value_row(v, n), facet.normal))

    lo = Fraction(0)
    step = Fraction(1)
    for probes in range(1, 201):
        cur = lo + step
        probe = q + r.scale(cur)
        if integer_ldlt(probe) is None:
            step /= 2
            continue
        # mu in probe.num units, floored: the values there are integers
        bound = mu.numerator * probe.den // mu.denominator
        fresh = [v for v, _val in vectors_below(probe, bound) if v not in old and r_value(v) < 0]
        if fresh:
            rho = min((mu - q.evaluate(v)) / r_value(v) for v in fresh)
            obs.add("neighbor", steps=1, ldlt_probes=probes)
            return q + r.scale(rho)
        lo = cur
        step *= 2
    raise NeighborStepError(
        f"no contiguous positive-definite form along facet {facet.ray_support}"
    )


# -- unimodular equivalence -------------------------------------------------------


def are_equivalent(a: SymMatrix, b: SymMatrix) -> Optional[list[list[int]]]:
    """A unimodular U with U^T A U = B, or None.  Scaling is not quotiented.

    Backtracks over the columns of U, in the order 0..n-1: column j
    must be a vector of A-value b_jj, and pairs of columns must
    reproduce the off-diagonal entries of B, so candidates come from one
    short-vector enumeration.  The search runs in integers, on A.num and
    B.num over their common denominator.  Each candidate's image A v is
    computed once per call, and placing column j with vector v filters
    the candidate list of every later column jj down to the u with
    (A v) . u = b_j,jj (forward checking); v is dropped as soon as one of
    those lists comes up empty.  The filtered lists keep their sorted
    order, so the search returns the same first witness, found in the
    same order, as a plain backtrack that checks each column only
    against the columns already placed.
    """
    if a.n != b.n:
        return None
    rows_a, rows_b = integer_ldlt(a), integer_ldlt(b)
    if rows_a is None or rows_b is None:
        raise ValueError("both forms must be positive definite")
    n = a.n
    nodes = 0  # columns placed in the search
    u = None
    try:
        # the entries of B = U^T A U and of A = U^-T B U^-1 are integral
        # combinations of each other's, so equivalent forms share den, and
        # then det(num), the last LDL^T pivot
        if a.den != b.den or rows_a[-1][-1] != rows_b[-1][-1]:
            return None
        targets = [b.num[j][j] for j in range(n)]
        by_value: dict[int, list[tuple[int, ...]]] = {}
        for v, val in vectors_below(a, max(targets)):
            by_value.setdefault(val, []).extend([v, tuple(-x for x in v)])
        images: dict[tuple[int, ...], tuple[int, ...]] = {}
        candidates = []
        for t in targets:
            pool = sorted(by_value.get(t, []))
            if not pool:
                return None
            for v in pool:
                if v not in images:
                    images[v] = tuple(sum(map(mul, row, v)) for row in a.num)
            candidates.append([(v, images[v]) for v in pool])

        cols: list[tuple[int, ...]] = []

        def place(j: int, pools: list[list[tuple[tuple[int, ...], tuple[int, ...]]]]) -> bool:
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
                    cols.append(v)
                    nodes += 1
                    if j + 1 == n or place(j + 1, narrowed):
                        return True
                    cols.pop()
            return False

        if not place(0, candidates):
            return None
        u = [[cols[j][i] for j in range(n)] for i in range(n)]
        conjugate = tuple(
            tuple(sum(map(mul, cols[i], images[cols[j]])) for j in range(n)) for i in range(n)
        )
        # U^T A U = B with det A = det B != 0 (compared above) gives
        # det(U)^2 = 1, so U is unimodular
        assert conjugate == b.num
        return u
    finally:
        obs.add("isometry", calls=1, hits=int(u is not None), nodes=nodes)


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
        self.records.append(record)
        self.neighbors.append(None)
        return len(self.records) - 1

    def edge(self, class_index: int, facet_index: int) -> tuple[int, list[list[int]]]:
        """Neighbor class across one facet, with the witness U such that
        U^T (neighbor class form) U = the literal contiguous form."""
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
        if doc.get("format") != 1:
            raise ValueError("unsupported catalog format")
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
            if record.n != cat.n:
                raise ValueError(
                    f"class {index}: form has dimension {record.n}, catalog has {cat.n}"
                )
            if [list(v) for v in record.min_data.vectors] != entry["min_vectors"]:
                raise ValueError("catalog record minimal vectors mismatch")
            if str(record.min_data.mu) != entry["mu"]:
                raise ValueError("catalog record minimum mismatch")
            cat.add(record)
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

    Starting from the A_n root form, expand every facet of every
    discovered class with the contiguity step and keep one
    representative per equivalence class.  ``limit`` caps the
    class count; hitting it leaves the catalog flagged incomplete.
    Passing a partially expanded ``catalog`` resumes it in place.
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
        edges = []
        for facet in record.facets:
            contiguous = PerfectFormRecord(neighbor(record, facet))
            found, _ = catalog.classify(contiguous)
            if found is None:
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
