"""``SymMatrix`` operations that only the tests use: the identity, the
trace pairing, the upper-triangle coordinates and congruence by an
integer matrix."""

from fractions import Fraction
from operator import mul

from vorocell.linalg import SymMatrix, mat_mul, transpose


def identity(n: int) -> SymMatrix:
    return SymMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def pair(a: SymMatrix, b: SymMatrix) -> Fraction:
    """Trace pairing <A,B> = trace(AB) = sum_ij A_ij B_ij."""
    total = sum(sum(map(mul, ra, rb)) for ra, rb in zip(a.num, b.num))
    return Fraction(total, a.den * b.den)


def upper(a: SymMatrix) -> tuple:
    """Upper-triangle entries, row by row: the coordinates that
    ``SymMatrix.from_upper`` reads."""
    n, den = a.n, a.den
    return tuple(Fraction(a.num[i][j], den) for i in range(n) for j in range(i, n))


def conjugate(a: SymMatrix, u) -> SymMatrix:
    """U^T A U for a square integer matrix U."""
    num = mat_mul(transpose(u), mat_mul(a.num, u))
    return SymMatrix([[Fraction(x, a.den) for x in row] for row in num])
