"""Exact rational linear algebra over small dense matrices.

Everything in this module is exact, with no floating point: the kernels
(elimination, LDL^T, Smith form and the simplex tableau of the cone
membership LP) run in ``int``, and rational results are
``fractions.Fraction``.  The matrices that show up downstream live
in spaces of dimension n(n+1)/2 for n <= 8, so simple dense algorithms
are fine and determinism matters more than speed.

Conventions:

* a "matrix" argument is a sequence of equal-length rows,
* symmetric matrices get their own immutable type (:class:`SymMatrix`)
  because the rest of the package passes them around as values,
* rationals serialize as ``"p/q"`` (or ``"p"`` when q == 1), which is
  exactly ``str(Fraction)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class SymMatrix:
    """Immutable symmetric matrix with exact rational entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]) -> None:
        n = len(rows)
        table = tuple(tuple(_frac(x) for x in row) for row in rows)
        for row in table:
            if len(row) != n:
                raise ValueError("symmetric matrix must be square")
        for i in range(n):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        self.n = n
        self.rows = table

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def rank_one(v: Sequence[int]) -> "SymMatrix":
        """The rank-one form v v^T of an integer vector."""
        return SymMatrix([[Fraction(a * b) for b in v] for a in v])

    @staticmethod
    def from_upper(n: int, coords: Sequence) -> "SymMatrix":
        """Inverse of :meth:`upper`: rebuild from upper-triangle entries."""
        it = iter(coords)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = _frac(next(it))
        return SymMatrix(rows)

    # -- arithmetic ----------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SymMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "SymMatrix":
        c = _frac(c)
        return SymMatrix([[c * x for x in row] for row in self.rows])

    def evaluate(self, v: Sequence) -> Fraction:
        """The value v^T A v."""
        total = Fraction(0)
        for i, vi in enumerate(v):
            if not vi:
                continue
            row = self.rows[i]
            total += vi * sum(row[j] * vj for j, vj in enumerate(v) if vj)
        return total

    def pair(self, other: "SymMatrix") -> Fraction:
        """Trace pairing <A,B> = trace(AB) = sum_ij A_ij B_ij."""
        return sum(
            a * b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def upper(self) -> tuple:
        """Upper-triangle entries, row by row; a coordinate system of
        dimension n(n+1)/2 in which entrywise equality of symmetric
        matrices becomes equality of vectors."""
        return tuple(self.rows[i][j] for i in range(self.n) for j in range(i, self.n))

    def conjugate(self, u: Sequence[Sequence[int]]) -> "SymMatrix":
        """U^T A U for a square integer matrix U."""
        n = self.n
        au = [[sum(self.rows[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return SymMatrix(
            [[sum(u[k][i] * au[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def integral_multiple(self) -> "SymMatrix":
        """The smallest positive rational multiple with integer entries
        of content 1 (gcd of entries)."""
        denoms = lcm(*(x.denominator for row in self.rows for x in row))
        numers = [x.numerator * (denoms // x.denominator) for row in self.rows for x in row]
        content = 0
        for a in numers:
            content = gcd(content, a)
        if content == 0:
            raise ValueError("zero matrix has no integral normalization")
        return self.scale(Fraction(denoms, content))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SymMatrix({[[str(x) for x in row] for row in self.rows]})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": [[str(x) for x in row] for row in self.rows]}

    @staticmethod
    def from_json_dict(doc: dict) -> "SymMatrix":
        rows = doc["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("rows must be a list of lists")
        m = SymMatrix([[Fraction(s) for s in row] for row in rows])
        if m.n != doc["n"]:
            raise ValueError("declared dimension does not match rows")
        return m


# -- plain row-matrix helpers (integer or Fraction entries) -------------------


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    cols = len(b[0])
    inner = len(b)
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a
    ]


def transpose(a: Sequence[Sequence]) -> list:
    return [list(col) for col in zip(*a)]


def identity_matrix(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _eliminate(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int], Fraction]:
    """Gauss-Jordan elimination in integers; the module's one elimination loop.

    Each row is first scaled by a positive rational to integers of
    content 1, and each updated row ``p * row - c * pivot_row`` is
    divided by its content again, so entries stay small integers.
    Returns ``(reduced, pivots, factor)``: ``reduced[i]`` is nonzero in
    column ``pivots[i]``, zero in every other pivot column and before
    ``pivots[i]``, so dividing it by that entry gives row i of the
    (unique) reduced row echelon form.  For square input of full rank,
    det = factor * the product of the pivot entries.
    """
    work = []
    num = den = 1  # factor = num / den, kept as ints until the end
    for row in rows:
        entries = [x if isinstance(x, (int, Fraction)) else _frac(x) for x in row]
        scale = lcm(*(x.denominator for x in entries))
        ints = [x.numerator * (scale // x.denominator) for x in entries]
        g = gcd(*ints) or 1
        work.append([x // g for x in ints] if g > 1 else ints)
        num *= g
        den *= scale
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            num = -num
        prow = work[rank]
        p = prow[col]
        for r, row in enumerate(work):
            c = row[col]
            if r != rank and c:
                new = [p * x - c * y for x, y in zip(row, prow)]
                g = gcd(*new) or 1
                work[r] = [x // g for x in new] if g > 1 else new
                num *= g
                den *= p
        pivots.append(col)
    return work[: len(pivots)], pivots, Fraction(num, den)


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Rank over the rationals."""
    return len(_eliminate(rows)[1])


def det(rows: Sequence[Sequence]) -> Fraction:
    reduced, pivots, factor = _eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    for row, col in zip(reduced, pivots):
        factor *= row[col]
    return factor


def invert(rows: Sequence[Sequence]) -> list:
    """Exact inverse of a square matrix; raises on singular input."""
    n = len(rows)
    reduced, pivots, _ = _eliminate(
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(reduced)]


def unimodular_inverse(u: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix of determinant +-1, in integers.

    Each row of the eliminated [U | I] is primitive, so it is +-(e_i |
    row i of U^-1) exactly when that inverse row is integral; any other
    pivot than +-1 means U is singular or not unimodular.
    """
    n = len(u)
    reduced, pivots, _ = _eliminate(
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(u)
    )
    if pivots != list(range(n)) or any(abs(row[i]) != 1 for i, row in enumerate(reduced)):
        raise ValueError("matrix is not unimodular")
    return [[x * row[i] for x in row[n:]] for i, row in enumerate(reduced)]


def integer_ldlt(a: SymMatrix) -> Optional[tuple[int, list[list[int]]]]:
    """Fraction-free LDL^T: Bareiss elimination on scale * A, with
    ``scale`` clearing A's denominators; every division is exact.

    Returns (scale, rows) with rows[k] zero before column k, so that
    scale * x^T A x = sum_k t_k^2 / (D_{k-1} D_k) for D_k = rows[k][k],
    D_{-1} = 1 and t_k = sum_{j>=k} rows[k][j] x_j.  D_k is scale^(k+1)
    times a leading principal minor, so by Sylvester's criterion the
    result is None, at the first D_k <= 0, exactly when A is not
    positive definite.
    """
    n = a.n
    scale = lcm(*(x.denominator for row in a.rows for x in row))
    work = [[x.numerator * (scale // x.denominator) for x in row] for row in a.rows]
    rows = []
    prev = 1
    for k in range(n):
        pivot_row = work[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            return None
        rows.append([0] * k + pivot_row[k:])
        # stage k + 1 on the upper triangle; work[i][k] == work[k][i] by symmetry
        for i in range(k + 1, n):
            c = pivot_row[i]
            row = work[i]
            for j in range(i, n):
                row[j] = (pivot * row[j] - c * pivot_row[j]) // prev
        prev = pivot
    return scale, rows


def is_positive_definite(a: SymMatrix) -> bool:
    return integer_ldlt(a) is not None


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of a linear system A x = b.

    ``solution`` is one particular solution (None when infeasible) and
    ``kernel`` a basis of the homogeneous solutions; the system has a
    unique solution exactly when ``solution`` is set and ``kernel`` is
    empty.
    """

    solution: Optional[tuple]
    kernel: tuple

    @property
    def unique(self) -> bool:
        return self.solution is not None and not self.kernel


def solve_linear(a_rows: Sequence[Sequence], b: Sequence) -> LinearSolution:
    rows = [list(row) + [bi] for row, bi in zip(a_rows, b)]
    if len(rows) != len(b):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(a_rows[0]) if a_rows else 0
    reduced, pivots, _ = _eliminate(rows)
    if ncols in pivots:
        return LinearSolution(solution=None, kernel=())
    particular = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = Fraction(row[ncols], row[col])
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = Fraction(-row[f], row[col])
        kernel.append(tuple(vec))
    return LinearSolution(solution=tuple(particular), kernel=tuple(kernel))


# -- Smith normal form ---------------------------------------------------------


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors (positive, each dividing the next) and rank.

    Pivot choice: the nonzero entry of minimal absolute value, ties
    broken by smallest row then column index, which keeps runs
    reproducible and entry growth tame.
    """
    work = [[int(x) for x in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    factors: list[int] = []
    top = 0
    while True:
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(work[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        work[top], work[bi] = work[bi], work[top]
        for row in work:
            row[top], row[bj] = row[bj], row[top]
        # clear the pivot row and column; restart if a remainder shrinks the pivot
        while True:
            pivot = work[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                if work[i][top]:
                    q = work[i][top] // pivot
                    if q:
                        work[i] = [x - q * y for x, y in zip(work[i], work[top])]
                    if work[i][top]:
                        work[top], work[i] = work[i], work[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, ncols):
                if work[top][j]:
                    q = work[top][j] // pivot
                    if q:
                        for row in work:
                            row[j] -= q * row[top]
                    if work[top][j]:
                        for row in work:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if not dirty:
                break
        # the pivot must divide everything below-right; if not, fold the
        # offending row in and re-reduce
        pivot = work[top][top]
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if work[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            work[top] = [x + y for x, y in zip(work[top], work[offender])]
            continue
        factors.append(abs(pivot))
        top += 1
        if top == nrows or top == ncols:
            break
    return tuple(factors), len(factors)


# -- exact LP: membership in a finitely generated cone ------------------------


@dataclass(frozen=True)
class ConeMembership:
    """A certificate sum_i lambda_i ray_i = target with lambda >= 0."""

    coefficients: tuple
    support: frozenset


def _simplex_phase1(columns: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    Bland's smallest-index rule throughout (both entering and leaving),
    starting from the all-artificial basis, so the run — and therefore
    the certificate it produces — is canonical for a given input order.
    Returns the structural solution x, or None when the optimum is
    positive (the system has no nonnegative solution).

    The tableau is fraction-free (Edmonds, Bareiss): column j of A is
    multiplied by the lcm s_j of its denominators and b by the lcm t of
    its denominators, and the integer rows T stand for the tableau T / d
    with d the last pivot (initially 1).  Pivoting on p = T[l][e] > 0
    replaces every other row r, the cost row included, by
    (p T[r] - T[r][e] T[l]) / d, an exact division, and sets d = p; the
    entries stay minors of the scaled system.  The scalings keep Bland's
    pivots: a column scaled by s_j > 0 has its reduced cost scaled by
    s_j, so the first negative one is the same column, and scaling b by
    t and the entering column by s_e multiplies every ratio of the
    ratio test by t / s_e > 0, which keeps their order and their ties.
    x_j = s_j x'_j / t undoes the scaling of the solution x' found.
    """
    m = len(rhs)
    nstruct = len(columns)
    col_scale = [lcm(*(x.denominator for x in col)) for col in columns]
    int_columns = [
        [x.numerator * (s // x.denominator) for x in col] for col, s in zip(columns, col_scale)
    ]
    rhs_scale = lcm(*(x.denominator for x in rhs))
    # rows with negative right-hand side are flipped so b >= 0
    tableau = []
    for r in range(m):
        row = [col[r] for col in int_columns] + [0] * m
        row[nstruct + r] = 1
        b = rhs[r].numerator * (rhs_scale // rhs[r].denominator)
        if b < 0:
            row = [-x for x in row[:nstruct]] + row[nstruct:]
            b = -b
        tableau.append(row + [b])
    basis = [nstruct + r for r in range(m)]
    # reduced costs for the phase-1 objective (sum of artificials): zero
    # on the artificial columns, minus the column sums elsewhere
    cost = [-sum(row[j] for row in tableau) for j in range(nstruct)] + [0] * m
    cost.append(-sum(row[-1] for row in tableau))
    d = 1
    while True:
        entering = next((j for j in range(nstruct + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving_row = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                if leaving_row is None:
                    leaving_row = r
                    continue
                # this row's ratio against the best one, cross-multiplied
                here = tableau[r][-1] * tableau[leaving_row][entering]
                best = tableau[leaving_row][-1] * a
                if here < best or (here == best and basis[r] < basis[leaving_row]):
                    leaving_row = r
        if leaving_row is None:
            raise ArithmeticError("phase-1 objective unbounded; cannot happen")
        prow = tableau[leaving_row]
        p = prow[entering]
        for r in range(m):
            if r != leaving_row:
                row = tableau[r]
                c = row[entering]
                tableau[r] = [(p * x - c * y) // d for x, y in zip(row, prow)]
        c = cost[entering]
        cost = [(p * x - c * y) // d for x, y in zip(cost, prow)]
        d = p
        basis[leaving_row] = entering
    if cost[-1] < 0:  # the objective, -cost[-1] / d, is positive
        return None
    x = [Fraction(0)] * nstruct
    for r, var in enumerate(basis):
        if var < nstruct:
            x[var] = Fraction(tableau[r][-1] * col_scale[var], d * rhs_scale)
    return x


def cone_membership(rays: Sequence[SymMatrix], target: SymMatrix) -> Optional[ConeMembership]:
    """Decide target in cone(rays) inside the space of symmetric matrices.

    Returns nonnegative rational coefficients with support (indices of
    the strictly positive ones), or None when the target is outside.
    Membership is meant in the closed cone; the empty combination
    certifies the zero matrix.
    """
    if not rays:
        raise ValueError("need at least one ray")
    n = rays[0].n
    if target.n != n or any(r.n != n for r in rays):
        raise ValueError("all matrices must share a dimension")
    columns = [list(r.upper()) for r in rays]
    rhs = list(target.upper())
    x = _simplex_phase1(columns, rhs)
    if x is None:
        return None
    return ConeMembership(
        coefficients=tuple(x), support=frozenset(i for i, v in enumerate(x) if v > 0)
    )
