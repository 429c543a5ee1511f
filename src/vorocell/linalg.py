"""Exact rational linear algebra over small dense matrices.

Everything in this module is exact, with no floating point: the kernels
(elimination, LDL^T, Smith form and the simplex tableau of the cone
membership LP) and the arithmetic of symmetric matrices run in
``int``, and rational results are ``fractions.Fraction``.  Each job
has one kernel: Gauss-Jordan elimination of integer rows gives ranks
and pivots; the fraction-free LDL^T of a form, computed once per
matrix and kept on it, decides positive definiteness, drives the
minimal-vector sweep and gives the determinant as its last pivot;
least-entry pivoting gives the invariant factors of the Smith form;
and a phase-1 simplex on integer columns and one integer right-hand
side over one positive scale decides cone membership.  The matrices
that show up downstream live in spaces of dimension n(n+1)/2 for
n <= 8, so simple dense algorithms are fine and determinism matters
more than speed.

Conventions:

* a "matrix" argument is a sequence of equal-length rows,
* symmetric matrices get their own immutable type (:class:`SymMatrix`)
  because the rest of the package passes them around as values; one
  is an integer matrix over one positive denominator, in lowest terms,
  and its ``Fraction`` entries are read-only views,
* rationals serialize as ``"p/q"`` (or ``"p"`` when q == 1), which is
  exactly ``str(Fraction)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import mul
from typing import Iterable, Optional, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _integer(value, message: str) -> int:
    """``int(value)``, failing with ``message``, which names the field,
    also on a float that is not integral and on a JSON ``true`` or
    ``false``."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(message)
    try:
        return int(value)
    except (ValueError, TypeError, OverflowError):
        raise ValueError(message) from None


def _check_format(doc: dict, kind: str) -> None:
    """Reject a document whose ``format`` is not the integer 1, naming
    its kind; a JSON ``true`` compares equal to 1."""
    fmt = doc.get("format")
    if fmt != 1 or isinstance(fmt, bool):
        raise ValueError(f"unsupported {kind} format")


# Python's default limit on the digits of an int string
# (sys.int_info.default_max_str_digits); a larger decimal exponent is
# refused before 10 ** exponent is built
_MAX_EXPONENT = 4300
_ENTRY_FAULT = "rows must hold integers or rational strings"


def _entry(value) -> Fraction:
    """One ``rows`` entry of a form document as a ``Fraction``, failing
    with a message that names the field: on a JSON boolean, a float that
    is not integral, an infinity or NaN, a string ``Fraction`` rejects,
    and a decimal exponent above ``_MAX_EXPONENT`` in magnitude."""
    if type(value) is bool:
        raise ValueError(f"{_ENTRY_FAULT}, not booleans")
    if type(value) is float and isfinite(value) and not value.is_integer():
        raise ValueError(f"{_ENTRY_FAULT}, not fractional floats")
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        try:
            huge = bool(e) and abs(int(exponent)) > _MAX_EXPONENT
        except ValueError:
            huge = False  # not an exponent: Fraction rejects the string
        if huge:
            raise ValueError(_ENTRY_FAULT)
    try:
        return Fraction(value)
    except (ValueError, TypeError, ArithmeticError):
        raise ValueError(_ENTRY_FAULT) from None


class SymMatrix:
    """Immutable symmetric matrix with exact rational entries, stored as
    one integer matrix ``num`` over one positive denominator ``den``.

    The pair is normalized so that gcd(content(num), den) = 1 (and a
    zero matrix has den = 1), which makes it canonical: two matrices
    are equal exactly when their ``num`` and ``den`` are.  ``den`` is
    then the lcm of the entries' denominators.  ``rows`` and indexing
    are read-only ``Fraction`` views of the same entries.
    ``_ldlt`` holds :func:`integer_ldlt` once it has run on the matrix,
    and ``_pools`` the isometry search's candidate vectors once
    :func:`~vorocell.perfect.are_equivalent` has swept the matrix as its
    first form, or :func:`~vorocell.perfect.automorphism_group` has
    swept it.
    """

    __slots__ = ("n", "num", "den", "_ldlt", "_pools")

    def __init__(self, rows: Sequence[Sequence]) -> None:
        n = len(rows)
        table = [[_frac(x) for x in row] for row in rows]
        for row in table:
            if len(row) != n:
                raise ValueError("symmetric matrix must be square")
        for i in range(n):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        # over the lcm of the reduced denominators the content is already
        # prime to den: a prime power dividing den exactly divides some
        # entry's denominator, and that entry's numerator is prime to it
        den = lcm(*(x.denominator for row in table for x in row))
        self.n = n
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in table)
        self.den = den

    @staticmethod
    def _over(num: Sequence[Sequence[int]], den: int) -> "SymMatrix":
        """The matrix num / den for a symmetric integer num and den > 0,
        normalized; the constructor of every result built here, which is
        symmetric by construction and needs no checks."""
        num = tuple(map(tuple, num))
        if den != 1:
            g = gcd(den, *(x for row in num for x in row))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        m = object.__new__(SymMatrix)
        m.n = len(num)
        m.num = num
        m.den = den
        return m

    # -- read-only Fraction views ----------------------------------------------

    @property
    def rows(self) -> tuple:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    # -- normalization -------------------------------------------------------

    def integral_multiple(self) -> "SymMatrix":
        """The smallest positive rational multiple with integer entries
        of content 1 (gcd of entries)."""
        content = gcd(*(x for row in self.num for x in row))
        if content == 0:
            raise ValueError("zero matrix has no integral normalization")
        return SymMatrix._over([[x // content for x in row] for row in self.num], 1)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

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
        m = SymMatrix([[_entry(x) for x in row] for row in rows])
        if m.n != _integer(doc["n"], "n must be an integer"):
            raise ValueError("declared dimension does not match rows")
        return m


# -- plain row-matrix helpers (integer or Fraction entries) -------------------


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def transpose(a: Sequence[Sequence]) -> list:
    return [list(col) for col in zip(*a)]


def _eliminate(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of integer rows; the module's one
    elimination loop, behind the perfection test, the start of double
    description and :func:`unimodular_inverse`.

    Each row is first divided by its content, and each updated row
    ``p * row - c * pivot_row`` is divided by its content again, so
    entries stay small integers.  Returns ``(reduced, pivots)``:
    ``reduced[i]`` is nonzero in column ``pivots[i]``, zero in every
    other pivot column and before ``pivots[i]``, so dividing it by that
    entry gives row i of the (unique) reduced row echelon form.  No
    determinant is taken here: the determinant of a form is the last
    pivot of :func:`integer_ldlt`.
    """
    work = []
    for row in rows:
        ints = list(row)
        g = gcd(*ints) or 1
        work.append([x // g for x in ints] if g > 1 else ints)
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
        prow = work[rank]
        p = prow[col]
        for r, row in enumerate(work):
            c = row[col]
            if r != rank and c:
                new = [p * x - c * y for x, y in zip(row, prow)]
                g = gcd(*new) or 1
                work[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return work[: len(pivots)], pivots


def unimodular_inverse(u: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix of determinant +-1, in integers.

    Each row of the eliminated [U | I] is primitive, so it is +-(e_i |
    row i of U^-1) exactly when that inverse row is integral; any other
    pivot than +-1 means U is singular or not unimodular.
    """
    n = len(u)
    reduced, pivots = _eliminate(
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(u)
    )
    if pivots != list(range(n)) or any(abs(row[i]) != 1 for i, row in enumerate(reduced)):
        raise ValueError("matrix is not unimodular")
    return [[x * row[i] for x in row[n:]] for i, row in enumerate(reduced)]


def integer_ldlt(a: SymMatrix) -> Optional[tuple[tuple[int, ...], ...]]:
    """Fraction-free LDL^T: Bareiss elimination on scale * A = A.num,
    with scale = A.den; every division is exact.  Computed once per
    matrix object and kept on it (``num`` and ``den`` never change).

    Returns rows with rows[k] zero before column k, so that
    scale * x^T A x = sum_k t_k^2 / (D_{k-1} D_k) for D_k = rows[k][k],
    D_{-1} = 1 and t_k = sum_{j>=k} rows[k][j] x_j.  D_k is scale^(k+1)
    times a leading principal minor, so by Sylvester's criterion the
    result is None, at the first D_k <= 0, exactly when A is not
    positive definite.  The last pivot D_{n-1} is det(A.num), which is
    the package's determinant of a form: det A = D_{n-1} / scale^n.
    """
    if hasattr(a, "_ldlt"):
        return a._ldlt
    n = a.n
    work = [list(row) for row in a.num]
    rows = []
    prev = 1
    for k in range(n):
        pivot_row = work[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            a._ldlt = None
            return None
        rows.append((0,) * k + tuple(pivot_row[k:]))
        # stage k + 1 on the upper triangle; work[i][k] == work[k][i] by symmetry
        for i in range(k + 1, n):
            c = pivot_row[i]
            row = work[i]
            for j in range(i, n):
                row[j] = (pivot * row[j] - c * pivot_row[j]) // prev
        prev = pivot
    a._ldlt = tuple(rows)
    return a._ldlt


def is_positive_definite(a: SymMatrix) -> bool:
    return integer_ldlt(a) is not None


# -- Smith normal form ---------------------------------------------------------


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors, positive and each dividing the next; there are
    as many as the rank.

    Least-entry pivoting (Munkres, *Elements of Algebraic Topology*,
    section 11).  Each pass takes as pivot a nonzero entry of least
    absolute value, ties broken by smallest row then column index, and
    reduces every other row and column by it with the floor quotient.
    A remainder left is smaller than the pivot, so the next pass picks
    it.  Once the pivot's row and column are clear, a pivot that does
    not divide some other entry gets the first row holding one added to
    its own row; a pivot that divides every entry is the next factor,
    and its row and column are deleted.
    """
    work = [[int(x) for x in row] for row in rows]
    factors: list[int] = []
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(work) for j, x in enumerate(row) if x]
        if not entries:
            return tuple(factors)
        _, pi, pj = min(entries)
        prow = work[pi]
        p = prow[pj]
        others = work[:pi] + work[pi + 1 :]
        for row in others:
            q = row[pj] // p
            if q:
                row[:] = [x - q * y for x, y in zip(row, prow)]
        for j, x in enumerate(prow):
            q = x // p
            if q and j != pj:
                for row in work:
                    row[j] -= q * row[pj]
        if any(row[pj] for row in others) or any(prow[:pj] + prow[pj + 1 :]):
            continue
        offender = next((row for row in others if any(x % p for x in row)), None)
        if offender is not None:
            prow[:] = [x + y for x, y in zip(prow, offender)]
            continue
        factors.append(abs(p))
        del work[pi]
        for row in work:
            del row[pj]


# -- exact LP: membership in a finitely generated cone ------------------------


def cone_membership(
    columns: Sequence[Sequence[int]], rhs: Sequence[int], scale: int
) -> Optional[list[Fraction]]:
    """Decide whether b = ``rhs / scale``, for a positive ``scale``, lies
    in the closed cone of the integer ``columns``: the phase-1 simplex of
    A x = b, x >= 0, with column j of A equal to ``columns[j]``.

    Bland's smallest-index rule throughout (both entering and leaving),
    starting from the all-artificial basis, so the run -- and therefore
    the certificate it produces -- is canonical for a given input order.
    Returns the nonnegative solution x as ``Fraction``, or None when the
    optimum is positive (b is outside the cone); the empty combination
    certifies b = 0.

    The tableau is fraction-free (Edmonds, Bareiss): it starts from the
    integer columns and the integer right-hand side t b, t = ``scale``,
    and the integer rows T stand for the tableau T / d with d the last
    pivot (initially 1).  Pivoting on p = T[l][e] > 0 replaces every
    other row r, the cost row included, by (p T[r] - T[r][e] T[l]) / d,
    an exact division, and sets d = p; the entries stay minors of the
    scaled system.  The scale keeps Bland's pivots: no reduced cost
    reads the right-hand side, and scaling it by t > 0 multiplies every
    ratio of the ratio test by t, which keeps their order and their
    ties.  So ``rhs`` and ``scale`` may share a factor, and x = x' / t
    for the solution x' found.
    """
    m = len(rhs)
    nstruct = len(columns)
    # rows with negative right-hand side are flipped so b >= 0
    tableau = []
    for r in range(m):
        row = [col[r] for col in columns] + [0] * m
        row[nstruct + r] = 1
        b = rhs[r]
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
            x[var] = Fraction(tableau[r][-1], d * scale)
    return x
