"""Enumeration of minimal vectors of positive-definite quadratic forms.

The arithmetic minimum mu(A) is the least value of x^T A x over nonzero
primitive integer vectors, and M(A) the finite set of vectors attaining
it.  Enumeration is a Fincke--Pohst style recursive sweep driven by the
fraction-free LDL^T of :func:`~vorocell.linalg.integer_ldlt`: writing

    M * x^T A.num x = sum_k w_k t_k^2,   w_k = M / (D_{k-1} D_k),

with t_k as there and M the lcm of the D_{k-1} D_k, the sweep runs in
the integer units of A.num, A.den times values under A: its bound and
its values are integers, and only the minimum of :class:`MinData` is a
``Fraction``.  Coordinates are chosen from the last to the first, and
at each level the admissible integer interval is computed in integers
with ``math.isqrt`` — no floating point, no rounding.

Vectors are stored up to sign with the representative whose first
nonzero coordinate is positive (the rank-one matrix vv^T downstream is
sign-invariant); the doubled count is available where a comparison with
sign-counting conventions matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .linalg import SymMatrix, integer_ldlt


def canonical_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    return v


def is_primitive(v: tuple[int, ...]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def vectors_below(q: SymMatrix, bound: int) -> list[tuple[tuple[int, ...], int]]:
    """All primitive vectors v (up to sign) with v^T q.num v <= bound,
    with those values: ``bound`` and the values are q.den times values
    under q.  A bound below 1 finds nothing.

    Sorted lexicographically by vector; the returned representatives have
    their first nonzero coordinate positive.
    """
    rows = integer_ldlt(q)
    if rows is None:
        raise ValueError("form is not positive definite")
    if bound < 1:
        return []
    n = len(rows)
    pivots = [rows[k][k] for k in range(n)]
    denoms = [p * (pivots[k - 1] if k else 1) for k, p in enumerate(pivots)]
    m = lcm(*denoms)
    weights = [m // d for d in denoms]
    # m * x^T q.num x = sum_k weights[k] * t_k^2
    limit = bound * m
    x = [0] * n
    found: list[tuple[tuple[int, ...], int]] = []

    def sweep(k: int, remaining: int, zero_above: bool) -> None:
        # t_k = d * x_k + s, from the already-fixed coordinates x_{k+1}..x_{n-1}
        row = rows[k]
        s = 0
        for j in range(k + 1, n):
            if x[j]:
                s += row[j] * x[j]
        d, w = pivots[k], weights[k]
        top = isqrt(remaining // w)  # |t_k| <= top
        lo = -((top + s) // d)
        hi = (top - s) // d
        if zero_above and lo < 0:
            lo = 0  # pick one representative per +/- pair
        for xk in range(lo, hi + 1):
            x[k] = xk
            t = d * xk + s
            left = remaining - w * t * t
            if k == 0:
                v = tuple(x)
                if (not zero_above or xk) and is_primitive(v):
                    found.append((canonical_sign(v), (limit - left) // m))
            else:
                sweep(k - 1, left, zero_above and xk == 0)
        x[k] = 0

    sweep(n - 1, limit, True)
    found.sort(key=lambda pair: pair[0])
    return found


@dataclass(frozen=True)
class MinData:
    """The arithmetic minimum and the minimal vectors, up to sign."""

    mu: Fraction
    vectors: tuple[tuple[int, ...], ...]

    @property
    def signed_count(self) -> int:
        """Cardinality when v and -v are counted separately."""
        return 2 * len(self.vectors)


def minimal_vectors(q: SymMatrix) -> MinData:
    """Exact mu(A) and the complete set M(A) up to sign."""
    # every e_i is primitive, so the smallest diagonal entry bounds mu
    start = min(q.num[i][i] for i in range(q.n))
    if start <= 0:
        raise ValueError("form is not positive definite")
    below = vectors_below(q, start)
    low = min(value for _, value in below)
    return MinData(mu=Fraction(low, q.den), vectors=tuple(v for v, value in below if value == low))
