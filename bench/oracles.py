"""Output checks that do not come from the program under test.

Each check recomputes a property from first principles (exact
rational arithmetic written here) or compares against a published
count, and raises :class:`OracleError` when the program's output
disagrees.  None of them compares against a stored copy of earlier
output.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

# Perfect-form classes per dimension (Voronoi; Korkine-Zolotarev for
# n = 4, 5), and the number of minimal-vector pairs of each class:
# A2, A3, A4 and D4, A5, D5 and A5^3.
CLASS_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3}
PAIR_COUNTS = {2: [3], 3: [6], 4: [10, 12], 5: [15, 15, 20]}


class OracleError(AssertionError):
    """A program output failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# -- exact linear algebra, written independently of the program -------------


def rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def determinant(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def positive_definite(rows) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(determinant([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1))


def value(rows, v) -> Fraction:
    n = len(v)
    return sum(rows[i][j] * v[i] * v[j] for i in range(n) for j in range(n))


def _matrix(doc_rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in doc_rows]


# -- enumerate ----------------------------------------------------------------


def check_catalog(doc: dict, n: int, limit: int | None = None) -> None:
    """A catalog written by ``perfect enumerate --n n [--limit limit]``.

    Complete catalogs hold the published number of classes; a limited
    one holds exactly ``limit`` of them and says it is incomplete.
    Every class is a perfect form: its stored minimal vectors all reach
    mu, their number is one of the published pair counts, and their
    value system has full rank n(n+1)/2.  Classes are pairwise
    inequivalent by (pair count, det / mu^n), and every stored neighbor
    index points at a class.
    """
    require(doc.get("n") == n, f"catalog dimension {doc.get('n')} != {n}")
    classes = doc["classes"]
    if limit is None:
        require(doc["complete"] is True, "catalog not marked complete")
        require(len(classes) == CLASS_COUNTS[n],
                f"{len(classes)} classes in dimension {n}, expected {CLASS_COUNTS[n]}")
    else:
        require(doc["complete"] is False, "limited catalog marked complete")
        require(len(classes) == min(limit, CLASS_COUNTS[n]),
                f"{len(classes)} classes with --limit {limit}")
    pool = list(PAIR_COUNTS[n])
    invariants = set()
    dim = n * (n + 1) // 2
    for k, entry in enumerate(classes):
        form = _matrix(entry["form"]["rows"])
        require(len(form) == n and all(len(r) == n for r in form), f"class {k}: shape")
        require(all(form[i][j] == form[j][i] for i in range(n) for j in range(n)),
                f"class {k}: form not symmetric")
        require(positive_definite(form), f"class {k}: form not positive definite")
        mu = Fraction(entry["mu"])
        vectors = [tuple(int(x) for x in v) for v in entry["min_vectors"]]
        for v in vectors:
            require(len(v) == n and any(v), f"class {k}: bad vector {v}")
            require(value(form, v) == mu, f"class {k}: vector {v} does not reach mu = {mu}")
        signed = {v for v in vectors} | {tuple(-x for x in v) for v in vectors}
        require(len(signed) == 2 * len(vectors), f"class {k}: repeated vector up to sign")
        require(len(vectors) in pool, f"class {k}: {len(vectors)} minimal-vector pairs")
        pool.remove(len(vectors))
        system = [[v[i] * v[j] * (1 if i == j else 2) for i in range(n) for j in range(i, n)]
                  for v in vectors]
        require(rank(system) == dim, f"class {k}: value system rank below {dim}, not perfect")
        key = (len(vectors), determinant(form) / mu**n)
        require(key not in invariants, f"class {k}: duplicates an earlier class")
        invariants.add(key)
        nb = entry["neighbors"]
        if doc["complete"]:
            require(isinstance(nb, list) and nb, f"class {k}: no neighbor list")
        if nb is not None:
            require(all(isinstance(j, int) and 0 <= j < len(classes) for j in nb),
                    f"class {k}: neighbor index out of range")


def check_enumerate_summary(summary: dict, doc: dict, path: str) -> None:
    require(summary.get("classes") == len(doc["classes"]), "summary class count")
    require(summary.get("complete") == doc["complete"], "summary completeness")
    require(summary.get("catalog") == path, "summary catalog path")


# -- reduce -------------------------------------------------------------------


def check_reduction(result: dict, form_rows, catalog: dict) -> None:
    """The certificate of ``reduce``: an integral witness W with
    det W = +-1, strictly positive coefficients, and
    sum_i c_i (W m_i)(W m_i)^T equal to the input form exactly, for m_i
    the class's stored minimal vectors over the reported support."""
    classes = catalog["classes"]
    j = result["class_index"]
    require(isinstance(j, int) and 0 <= j < len(classes), f"class index {j} out of range")
    n = len(form_rows)
    w = result["witness"]
    require(len(w) == n and all(len(r) == n for r in w), "witness shape")
    require(all(isinstance(x, int) for r in w for x in r), "witness not integral")
    require(abs(determinant(w)) == 1, "witness not unimodular")
    vectors = catalog["classes"][j]["min_vectors"]
    support = result["support"]
    coeffs = [Fraction(c) for c in result["coefficients"]]
    require(len(support) == len(coeffs) and support, "support and coefficients differ")
    require(all(0 <= i < len(vectors) for i in support), "support index out of range")
    require(len(set(support)) == len(support), "repeated support index")
    require(all(c > 0 for c in coeffs), "coefficient not strictly positive")
    require(isinstance(result["steps"], int) and result["steps"] >= 0, "bad step count")
    total = [[Fraction(0)] * n for _ in range(n)]
    for i, c in zip(support, coeffs):
        m = vectors[i]
        image = [sum(w[r][s] * m[s] for s in range(n)) for r in range(n)]
        for a in range(n):
            for b in range(n):
                total[a][b] += c * image[a] * image[b]
    require(total == [[Fraction(x) for x in row] for row in form_rows],
            "translated rays do not sum to the input form")


def same_reduction(cold: dict, warm) -> None:
    """A CLI result and an in-process ReductionResult agree exactly."""
    require(cold["class_index"] == warm.class_index, "cold and warm class differ")
    require(cold["witness"] == [list(r) for r in warm.witness], "cold and warm witness differ")
    require(cold["support"] == list(warm.support), "cold and warm support differ")
    require(cold["coefficients"] == [str(c) for c in warm.coefficients],
            "cold and warm coefficients differ")
    require(cold["steps"] == warm.steps, "cold and warm step counts differ")


# -- complexes ----------------------------------------------------------------


def check_sphere_shell(report: dict, facets: int) -> None:
    require(report.get("status") == "sphere", f"shell status {report.get('status')!r}")
    require(report.get("facets") == facets, f"shell saw {report.get('facets')} facets")
    require(isinstance(report.get("nodes_used"), int) and report["nodes_used"] >= facets,
            "a shelling places every facet, so it uses at least that many nodes")


def check_homology(report: dict, betti: list[int]) -> None:
    require(report.get("betti") == betti, f"betti {report.get('betti')} != {betti}")
    torsion = report.get("torsion")
    require(isinstance(torsion, list) and len(torsion) == len(betti), "torsion shape")
    require(all(t == [] for t in torsion), "unexpected torsion")


def sphere_betti(d: int) -> list[int]:
    return [1] + [0] * (d - 1) + [1] if d > 0 else [2]


def psl2_order(level: int) -> int:
    """|PSL2(Z/N)| = N^3/2 * prod over primes p | N of (1 - p^-2), N >= 3."""
    primes = [p for p in range(2, level + 1)
              if level % p == 0 and all(p % q for q in range(2, p))]
    order = Fraction(level**3, 2) * prod((1 - Fraction(1, p * p) for p in primes),
                                         start=Fraction(1))
    require(order.denominator == 1, f"group order of level {level} not integral")
    return int(order)


def check_sl2(report: dict, level: int) -> int:
    """Counts of the level-N quotient from the group order alone; the
    genus from the Euler characteristic; the dual graph's cycle rank.
    Returns the genus."""
    g = psl2_order(level)
    t, e, c = g // 3, g // 2, g // level
    require(report.get("level") == level, "level")
    require((report.get("triangles"), report.get("edges"), report.get("cusps")) == (t, e, c),
            f"counts {report.get('triangles')}, {report.get('edges')}, {report.get('cusps')}"
            f" != {t}, {e}, {c}")
    chi = c - e + t
    genus = (2 - chi) // 2
    require(report.get("genus") == genus, f"genus {report.get('genus')} != {genus}")
    require(report.get("genus_ratio") == str(Fraction(24 * genus, level**3)), "genus ratio")
    require(report.get("h1_rank") == 2 * genus + c - 1, "dual graph cycle rank")
    require(report.get("vcd_vanishing") is True, "vcd vanishing")
    return genus


def check_surface_doc(doc: dict, level: int) -> None:
    g = psl2_order(level)
    require(doc.get("dims") == [g // level, g // 2, g // 3], f"surface dims {doc.get('dims')}")
