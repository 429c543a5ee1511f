"""``SymMatrix`` operations that only the tests use: the identity,
sums, rational multiples, the value at a vector, the trace pairing, the
upper-triangle coordinates and back, congruence by an integer matrix,
and the null space of an elimination with the perfection kernel built
from it."""

from fractions import Fraction
from math import lcm
from operator import mul

from vorocell.linalg import SymMatrix, _eliminate, _frac, mat_mul, transpose
from vorocell.minvec import minimal_vectors
from vorocell.perfect import _value_row


def identity(n: int) -> SymMatrix:
    return SymMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def add(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    den = lcm(a.den, b.den)
    p, q = den // a.den, den // b.den
    return SymMatrix._over(
        [[p * x + q * y for x, y in zip(ra, rb)] for ra, rb in zip(a.num, b.num)], den
    )


def sub(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    return add(a, scale(b, -1))


def scale(a: SymMatrix, c) -> SymMatrix:
    """c A for a rational c, given as anything ``SymMatrix`` reads."""
    c = _frac(c)
    return SymMatrix._over([[c.numerator * x for x in row] for row in a.num], a.den * c.denominator)


def evaluate(a: SymMatrix, v) -> Fraction:
    """The value v^T A v."""
    total = 0
    for vi, row in zip(v, a.num):
        if vi:
            total += vi * sum(map(mul, row, v))
    return Fraction(total, a.den)


def pair(a: SymMatrix, b: SymMatrix) -> Fraction:
    """Trace pairing <A,B> = trace(AB) = sum_ij A_ij B_ij."""
    total = sum(sum(map(mul, ra, rb)) for ra, rb in zip(a.num, b.num))
    return Fraction(total, a.den * b.den)


def upper(a: SymMatrix) -> tuple:
    """Upper-triangle entries, row by row: the coordinates that
    :func:`from_upper` reads."""
    n, den = a.n, a.den
    return tuple(Fraction(a.num[i][j], den) for i in range(n) for j in range(i, n))


def conjugate(a: SymMatrix, u) -> SymMatrix:
    """U^T A U for a square integer matrix U."""
    num = mat_mul(transpose(u), mat_mul(a.num, u))
    return SymMatrix([[Fraction(x, a.den) for x in row] for row in num])


def from_upper(n: int, coords) -> SymMatrix:
    """The symmetric matrix with these upper-triangle entries, row by
    row."""
    coords = [_frac(x) for x in coords]
    den = lcm(*(x.denominator for x in coords))
    it = iter(x.numerator * (den // x.denominator) for x in coords)
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            num[i][j] = num[j][i] = next(it)
    return SymMatrix._over(num, den)


def null_space(reduced, pivots, ncols: int) -> tuple:
    """A basis of the solutions of the homogeneous system on the first
    ``ncols`` columns of an ``_eliminate`` result: one vector per free
    column, 1 there, 0 on the other free columns."""
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = Fraction(-row[f], row[col])
        kernel.append(tuple(vec))
    return tuple(kernel)


def perfection_kernel(q: SymMatrix) -> tuple:
    """A basis of the symmetric Z with m^T Z m = 0 for every minimal
    vector m of q: the directions the perfection test leaves free,
    empty exactly when q is perfect."""
    dim = q.n * (q.n + 1) // 2
    reduced, pivots = _eliminate(_value_row(m, q.n) for m in minimal_vectors(q).vectors)
    return tuple(from_upper(q.n, vec) for vec in null_space(reduced, pivots, dim))
