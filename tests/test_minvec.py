"""Minimal-vector enumeration against a brute-force box search, and the
integer sweep against a reference sweep in ``Fraction`` arithmetic."""

from fractions import Fraction
from math import floor, isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

import vorocell.perfect
from vorocell.linalg import SymMatrix, is_positive_definite
from vorocell.minvec import canonical_sign, is_primitive, minimal_vectors, vectors_below
from vorocell.perfect import PerfectFormRecord, a_root_form, are_equivalent, neighbor


# -- oracle: exhaustive search over a crude coordinate box -------------------


def brute_minimum(q: SymMatrix, box: int = 12):
    """Arithmetic minimum and minimal vectors by scanning the integer
    box [-box, box]^n, keeping one representative per +/- pair."""
    n = q.n
    best = None
    found = []

    def rec(prefix):
        nonlocal best, found
        if len(prefix) == n:
            v = tuple(prefix)
            if all(x == 0 for x in v) or not is_primitive(v):
                return
            val = q.evaluate(v)
            if best is None or val < best:
                best = val
                found = [canonical_sign(v)]
            elif val == best and canonical_sign(v) not in found:
                found.append(canonical_sign(v))
            return
        for x in range(-box, box + 1):
            rec(prefix + [x])

    rec([])
    return best, sorted(found)


# -- oracle: the same Fincke-Pohst sweep on a rational LDL^T -----------------


def rational_ldlt(a: SymMatrix):
    """A = L D L^T with Fraction pivots d and multipliers lower[i][k]."""
    n = a.n
    work = [list(row) for row in a.rows]
    d = []
    lower = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d.append(work[k][k])
        for i in range(k + 1, n):
            lower[i][k] = work[i][k] / work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                work[i][j] -= lower[i][k] * work[j][k]
                work[j][i] = work[i][j]
    return d, lower


def floor_sqrt_plus(s: Fraction, c: Fraction) -> int:
    """floor(sqrt(s) + c) for s >= 0, computed exactly."""
    p, q = s.numerator, s.denominator
    a, b = c.numerator, c.denominator
    return (isqrt(p * q * b * b) + a * q) // (q * b)


def reference_vectors_below(q: SymMatrix, bound: Fraction):
    """vectors_below, swept in Fraction arithmetic on the rational LDL^T:
    x^T A x = sum_k d_k (x_k + sum_{i>k} L[i][k] x_i)^2."""
    d, lower = rational_ldlt(q)
    n = q.n
    x = [0] * n
    found = []

    def sweep(k, remaining, zero_above):
        c = sum((lower[i][k] * x[i] for i in range(k + 1, n)), Fraction(0))
        s = remaining / d[k]
        hi = floor_sqrt_plus(s, -c)
        lo = -floor_sqrt_plus(s, c)
        if zero_above and lo < 0:
            lo = 0
        for xk in range(lo, hi + 1):
            x[k] = xk
            used = d[k] * (xk + c) ** 2
            if used > remaining:
                continue
            if k == 0:
                v = tuple(x)
                if (not zero_above or xk) and is_primitive(v):
                    found.append((canonical_sign(v), bound - (remaining - used)))
            else:
                sweep(k - 1, remaining - used, zero_above and xk == 0)
        x[k] = 0

    sweep(n - 1, bound, True)
    found.sort(key=lambda pair: pair[0])
    return found


@st.composite
def rational_forms(draw):
    """(B^T B + D) / d with small integer B, a positive diagonal D of at
    least 1 per entry and d in {1, 2, 3, 6}: positive definite, and
    conditioned well enough that a bound of a few diagonal entries keeps
    the sweep small."""
    n = draw(st.integers(1, 5))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.integers(1, 4)) for _ in range(n)]
    d = draw(st.sampled_from([1, 2, 3, 6]))
    rows = [
        [Fraction(sum(b[k][i] * b[k][j] for k in range(n)) + (diag[i] if i == j else 0), d)
         for j in range(n)]
        for i in range(n)
    ]
    return SymMatrix(rows)


def symmetric_pd(entries):
    n = 2
    rows = [[0] * n for _ in range(n)]
    a, b, c = entries
    rows[0][0] = 2 + abs(a)
    rows[1][1] = 2 + abs(b)
    rows[0][1] = rows[1][0] = c % 3 - 1
    return SymMatrix(rows)


def test_identity_minimum():
    md = minimal_vectors(SymMatrix.identity(3))
    assert md.mu == 1
    assert sorted(md.vectors) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert md.signed_count == 6


def test_hexagonal_form():
    md = minimal_vectors(SymMatrix([[2, 1], [1, 2]]))
    assert md.mu == 2
    assert sorted(md.vectors) == [(0, 1), (1, 0), (1, -1)] or sorted(
        md.vectors
    ) == sorted([(0, 1), (1, 0), (1, -1)])
    assert md.signed_count == 6


def test_root_form_a3():
    a3 = SymMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    md = minimal_vectors(a3)
    assert md.mu == 2
    assert md.signed_count == 12


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6)))
@settings(max_examples=40, deadline=None)
def test_matches_brute_force(entries):
    q = symmetric_pd(entries)
    assert is_positive_definite(q)
    mu, vecs = brute_minimum(q)
    md = minimal_vectors(q)
    assert md.mu == mu
    assert sorted(md.vectors) == vecs


def test_vectors_below_includes_bound():
    q = SymMatrix.identity(2)
    got = vectors_below(q, 2)
    vals = {v: val for v, val in got}
    assert vals[(1, 0)] == 1 and vals[(1, 1)] == 2
    assert (1, -1) in vals
    assert all(val <= 2 for val in vals.values())


def test_vectors_below_primitive_only():
    q = SymMatrix.identity(2)
    got = dict(vectors_below(q, 4))
    assert (2, 0) not in got
    assert (0, 2) not in got


def test_fractional_form():
    q = SymMatrix([[Fraction(1, 2), 0], [0, Fraction(3)]])
    md = minimal_vectors(q)
    assert md.mu == Fraction(1, 2)
    assert md.vectors == ((1, 0),)


def in_num_units(q: SymMatrix, bound: Fraction):
    """The reference sweep below a rational bound, values times q.den."""
    return [(v, val * q.den) for v, val in reference_vectors_below(q, bound)]


@given(rational_forms(), st.fractions(Fraction(1, 3), Fraction(5)))
@settings(max_examples=150, deadline=None)
def test_integer_sweep_matches_fraction_sweep(q, ratio):
    # the integer sweep's bound and values are in q.num units, q.den times
    # the reference's; the rational bound, often between two values, is
    # floored into those units
    bound = min(q.rows[i][i] for i in range(q.n)) * ratio
    got = vectors_below(q, floor(bound * q.den))
    assert all(type(val) is int for _, val in got)
    assert got == in_num_units(q, bound)


def test_bound_between_values_is_floored_exactly(monkeypatch):
    # values of the identity are integers; a bound just below 2 keeps the
    # unit vectors and drops (1, 1) and (1, -1)
    got = vectors_below(SymMatrix.identity(2), floor(Fraction(199, 100)))
    assert got == [((0, 1), 1), ((1, 0), 1)]
    third = SymMatrix([[Fraction(1, 3), 0], [0, Fraction(1, 3)]])
    again = vectors_below(third, floor(Fraction(2, 3) * third.den))
    assert again == [((0, 1), 1), ((1, -1), 2), ((1, 0), 1), ((1, 1), 2)]
    assert vectors_below(third, 1) == [((0, 1), 1), ((1, 0), 1)]
    assert vectors_below(third, 0) == []  # a bound below 1 finds nothing

    # the callers floor their rational bound c to c * q.den in q.num units
    swept = []

    def recorded(q, bound):
        found = vectors_below(q, bound)
        swept.append((q, bound, found))
        return found

    monkeypatch.setattr(vorocell.perfect, "vectors_below", recorded)
    record = PerfectFormRecord(a_root_form(3))
    mu = record.min_data.mu
    for facet in record.facets[:4]:
        swept.clear()
        neighbor(record, facet)
        assert swept
        for probe, bound, found in swept:
            assert bound == floor(mu * probe.den)
            assert found == in_num_units(probe, mu)
    # are_equivalent sweeps only forms over one denominator, whose b_jj
    # are in a.num units already
    half = SymMatrix([[Fraction(9, 2), 0], [0, 2]])
    swept.clear()
    assert are_equivalent(SymMatrix([[1, 0], [0, 9]]), half) is None  # equal det
    assert swept == []
    b = half.conjugate([[1, 1], [0, 1]])
    assert are_equivalent(half, b) is not None
    c = max(b.rows[j][j] for j in range(b.n))
    [(q, bound, found)] = swept
    assert q is half and bound == floor(c * half.den) == 13
    assert found == in_num_units(half, c)
