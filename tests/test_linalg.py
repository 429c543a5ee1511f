"""Exact linear algebra kernel tests.

Reference computations (determinant, reduced row echelon form, null
space, Smith form) come from sympy so the hand-rolled integer
elimination is checked against an independent implementation.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vorocell import linalg
from vorocell.linalg import (
    SymMatrix,
    cone_membership,
    integer_ldlt,
    is_positive_definite,
    mat_mul,
    smith_normal_form,
    transpose,
)
from sym_helpers import (
    add,
    conjugate,
    evaluate,
    from_upper,
    identity,
    null_space,
    pair,
    scale,
    sub,
    upper,
)


# -- independent oracles ---------------------------------------------------


def sympy_matrix(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def sympy_det(rows):
    return to_fraction(sympy_matrix(rows).det())


def sympy_smith_factors(rows):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d = sympy_snf(sympy.Matrix(rows))
    diag = [abs(d[i, i]) for i in range(min(d.rows, d.cols))]
    return [int(x) for x in diag if x != 0]


# -- matrices ----------------------------------------------------------------


small_entries = st.integers(min_value=-6, max_value=6)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def integer_rows(draw):
    """Small integer entries; sometimes the last row is a combination of
    the first two, so rank deficiency is common."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    m = [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and draw(st.booleans()):
        c = draw(small_entries)
        m[-1] = [x + c * y for x, y in zip(m[0], m[1])]
    return m


def test_symmatrix_basics():
    a = SymMatrix([[2, 1], [1, 2]])
    assert a[0, 1] == 1
    assert evaluate(a, (1, -1)) == 2
    assert pair(a, identity(2)) == 4
    assert add(a, a).rows == scale(a, 2).rows
    assert upper(a) == (Fraction(2), Fraction(1), Fraction(2))


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "entry, value",
    [("1e400", 10**400), ("-2.5E+3", -2500), ("1e-3", Fraction(1, 1000)),
     (7.0, 7), (-3, -3), (" 3/4 ", Fraction(3, 4))],
)
def test_form_entries_that_load(entry, value):
    assert SymMatrix.from_json_dict({"n": 1, "rows": [[entry]]}) == SymMatrix([[value]])


def test_rank_one():
    r = SymMatrix.rank_one((1, -2))
    assert r.rows == ((1, -2), (-2, 4))


def test_conjugate_is_congruence():
    a = SymMatrix([[2, 1], [1, 2]])
    u = [[1, 1], [0, 1]]
    b = conjugate(a, u)
    ut = transpose(u)
    expect = mat_mul(mat_mul(ut, [list(r) for r in a.rows]), u)
    assert [list(r) for r in b.rows] == expect


def reference_mat_mul(a, b):
    """The triple loop ``mat_mul`` ran before it zipped the columns."""
    cols = len(b[0])
    inner = len(b)
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


small_fractions = st.builds(Fraction, small_entries, st.integers(1, 5))


@st.composite
def matrix_pairs(draw):
    """Rectangular a (r x m) and b (m x c), 1 x n and n x 1 among them,
    with integer or Fraction entries."""
    r, m, c = (draw(st.integers(1, 5)) for _ in range(3))
    entries = draw(st.sampled_from([small_entries, small_fractions]))
    a = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=m, max_size=m))
    return a, b


@given(matrix_pairs())
@example(([[1, -2, 3]], [[4], [0], [-1]]))
@example(([[Fraction(1, 2)], [3]], [[2, Fraction(-1, 3)]]))
@settings(max_examples=200)
def test_mat_mul_matches_the_triple_loop(ab):
    a, b = ab
    out = mat_mul(a, b)
    expect = reference_mat_mul(a, b)
    assert out == expect
    assert [[type(x) for x in row] for row in out] == [[type(x) for x in row] for row in expect]


class FractionSymMatrix:
    """The ``Fraction``-entry symmetric matrix that ``SymMatrix`` held
    before it became one integer matrix over one denominator; the
    reference for its arithmetic."""

    def __init__(self, rows):
        self.n = len(rows)
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)

    def __add__(self, other):
        return FractionSymMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return FractionSymMatrix([[c * x for x in row] for row in self.rows])

    def evaluate(self, v):
        return sum(
            (self.rows[i][j] * vi * vj for i, vi in enumerate(v) for j, vj in enumerate(v)),
            Fraction(0),
        )

    def pair(self, other):
        return sum(
            (a * b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)),
            Fraction(0),
        )

    def upper(self):
        return tuple(self.rows[i][j] for i in range(self.n) for j in range(i, self.n))

    def conjugate(self, u):
        n = self.n
        au = [[sum(self.rows[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return FractionSymMatrix(
            [[sum(u[k][i] * au[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def integral_multiple(self):
        denoms = lcm(*(x.denominator for row in self.rows for x in row))
        content = gcd(*(x.numerator * (denoms // x.denominator) for row in self.rows for x in row))
        if content == 0:
            raise ValueError("zero matrix")
        return self.scale(Fraction(denoms, content))


@st.composite
def rational_symmetric(draw, n):
    """Symmetric n x n rationals over a few shared denominators, with
    many zero entries; sometimes the zero matrix."""
    if draw(st.integers(0, 9)) == 0:
        return [[Fraction(0)] * n for _ in range(n)]
    shared = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
    entry = st.builds(
        Fraction,
        st.one_of(st.just(0), st.integers(-12, 12)),
        st.sampled_from([1, shared, 2 * shared]),
    )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return rows


def assert_matches(m, ref):
    """m equals the reference entry by entry, and is in canonical form:
    equal to (and hashed like) the same entries read by the constructor."""
    assert m.rows == ref.rows
    assert upper(m) == ref.upper()
    assert all(m[i, j] == ref.rows[i][j] for i in range(m.n) for j in range(m.n))
    assert m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1
    built = SymMatrix(ref.rows)
    assert m == built and hash(m) == hash(built)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    rational_symmetric(n),
    rational_symmetric(n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)))
@settings(max_examples=300, deadline=None)
def test_symmatrix_matches_fraction_reference(case):
    rows_a, rows_b, v, u, c = case
    a, b = SymMatrix(rows_a), SymMatrix(rows_b)
    ra, rb = FractionSymMatrix(rows_a), FractionSymMatrix(rows_b)
    assert_matches(a, ra)
    assert_matches(add(a, b), ra + rb)
    assert_matches(sub(a, b), ra - rb)
    assert_matches(scale(a, c), ra.scale(c))
    assert_matches(scale(a, -1), ra.scale(-1))
    assert_matches(conjugate(a, u), ra.conjugate(u))
    assert_matches(from_upper(a.n, ra.upper()), ra)
    assert evaluate(a, v) == ra.evaluate(v) and type(evaluate(a, v)) is Fraction
    assert pair(a, b) == ra.pair(rb) and type(pair(a, b)) is Fraction
    if any(x for row in rows_a for x in row):
        assert_matches(a.integral_multiple(), ra.integral_multiple())
    else:
        with pytest.raises(ValueError):
            a.integral_multiple()
    assert (a == b) == (ra.rows == rb.rows)
    assert add(a, b) == add(b, a) and hash(add(a, b)) == hash(add(b, a))
    assert sub(a, a) == scale(identity(a.n), 0)


@given(integer_rows())
@settings(max_examples=150)
def test_eliminate_and_null_space_match_sympy(rows):
    # the kernel behind the perfection test and the start of double description
    ncols = len(rows[0])
    reduced, pivots = linalg._eliminate(rows)
    expect, expect_pivots = sympy_matrix(rows).rref()
    assert all(type(x) is int for row in reduced for x in row)
    assert tuple(pivots) == expect_pivots
    assert [[Fraction(x, row[col]) for x in row] for row, col in zip(reduced, pivots)] == [
        [to_fraction(expect[r, c]) for c in range(ncols)] for r in range(len(pivots))
    ]
    kernel = null_space(reduced, pivots, ncols)
    expect_kernel = [[to_fraction(x) for x in vec] for vec in sympy_matrix(rows).nullspace()]
    assert len(kernel) == len(expect_kernel) == ncols - len(pivots)
    assert all(sum(map(mul, row, vec)) == 0 for row in rows for vec in kernel)
    if kernel:  # same span: stacking the two bases adds no rank
        assert sympy_matrix(list(kernel) + expect_kernel).rank() == len(kernel)


@given(int_matrix(4, 3))
@settings(max_examples=60)
def test_smith_factors_match_sympy(rows):
    assert list(smith_normal_form(rows)) == sympy_smith_factors(rows)


def test_positive_definite_detection():
    assert is_positive_definite(SymMatrix([[2, 1], [1, 2]]))
    assert not is_positive_definite(SymMatrix([[1, 2], [2, 1]]))
    assert not is_positive_definite(SymMatrix([[1, 1], [1, 1]]))  # semidefinite


@given(int_matrix(3, 3))
@settings(max_examples=60)
def test_pd_agrees_with_leading_minors(rows):
    # Sylvester's criterion as the oracle
    sym = [[Fraction(rows[i][j] + rows[j][i]) for j in range(3)] for i in range(3)]
    a = SymMatrix(sym)
    minors = [sympy_det([row[: k + 1] for row in sym[: k + 1]]) for k in range(3)]
    assert is_positive_definite(a) == all(m > 0 for m in minors)


def drawn_positive_forms(rng, count):
    """Strictly diagonally dominant, so positive definite, rational forms
    with n <= 6 and den > 1."""
    forms = []
    while len(forms) < count:
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for i in range(n):
            rows[i][i] = sum(map(abs, rows[i])) + Fraction(rng.randint(1, 9), rng.randint(1, 6))
        a = SymMatrix(rows)
        if a.den > 1:
            forms.append(a)
    return forms


def test_integer_ldlt_identity():
    # den * x^T A x = sum_k t_k^2 / (D_{k-1} D_k), t_k = sum_{j>=k} rows[k][j] x_j
    rng = random.Random("integer_ldlt")
    fixed = [
        SymMatrix(rows)
        for rows in (
            [[4, 2], [2, 3]],
            [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
            [[Fraction(7, 3), Fraction(1, 2), 0],
             [Fraction(1, 2), Fraction(5, 4), Fraction(-2, 5)],
             [0, Fraction(-2, 5), 3]],
        )
    ]
    for a in fixed + drawn_positive_forms(rng, 40):
        table = integer_ldlt(a)
        den = a.den
        n = a.n
        assert all(type(e) is int for row in table for e in row)
        assert all(table[k][j] == 0 for k in range(n) for j in range(k))
        assert [table[k][k] for k in range(n)] == [
            den ** (k + 1) * sympy_det([row[: k + 1] for row in a.rows[: k + 1]])
            for k in range(n)
        ]
        # the determinant comparison of are_equivalent and invariant_key rest on this
        assert table[-1][-1] == sympy.Matrix(a.num).det()
        for _ in range(50):
            x = [rng.randint(-6, 6) for _ in range(n)]
            total = Fraction(0)
            prev = 1
            for k in range(n):
                t = sum(table[k][j] * x[j] for j in range(k, n))
                total += Fraction(t * t, prev * table[k][k])
                prev = table[k][k]
            assert total == den * evaluate(a, x)
    assert integer_ldlt(SymMatrix([[1, 2], [2, 1]])) is None


def test_integer_ldlt_is_computed_once_per_matrix():
    a = SymMatrix([[Fraction(7, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 4)]])
    rows = integer_ldlt(a)
    assert integer_ldlt(a) is rows
    # an equal but distinct matrix is factored on its own, to equal rows
    twin = SymMatrix(a.rows)
    assert twin == a and twin is not a
    assert integer_ldlt(twin) == rows and integer_ldlt(twin) is not rows
    # a failed factorization is kept too, and results of arithmetic start afresh
    indefinite = SymMatrix([[1, 2], [2, 1]])
    assert integer_ldlt(indefinite) is None and integer_ldlt(indefinite) is None
    assert not hasattr(scale(a, 2), "_ldlt") and not hasattr(add(a, indefinite), "_ldlt")


def test_cone_membership_interior_and_outside():
    rays = [SymMatrix.rank_one(v) for v in [(1, 0), (0, 1), (1, 1)]]
    inside = cone_membership(rays, SymMatrix([[2, 1], [1, 2]]))
    assert inside is not None
    assert inside.support == frozenset({0, 1, 2})
    total = scale(identity(2), 0)
    for c, r in zip(inside.coefficients, rays):
        total = add(total, scale(r, c))
    assert total.rows == SymMatrix([[2, 1], [1, 2]]).rows
    outside = cone_membership(rays, SymMatrix([[2, -1], [-1, 2]]))
    assert outside is None


def test_cone_membership_boundary_support():
    rays = [SymMatrix.rank_one(v) for v in [(1, 0), (0, 1), (1, 1)]]
    face = cone_membership(rays, SymMatrix([[1, 0], [0, 1]]))
    assert face is not None
    assert face.support == frozenset({0, 1})


# -- the phase-1 simplex against its Fraction reference --------------------------


def reference_simplex_phase1(columns, rhs):
    """The phase-1 simplex with Bland's rule as it ran in ``Fraction``
    before the fraction-free tableau: every row divided by its pivot,
    ratios compared as rationals."""
    m = len(rhs)
    nstruct = len(columns)
    tableau = []
    for r in range(m):
        row = [col[r] for col in columns]
        if rhs[r] < 0:
            row = [-x for x in row]
            b = -rhs[r]
        else:
            b = rhs[r]
        tableau.append(row + [Fraction(0)] * m + [b])
    for r in range(m):
        tableau[r][nstruct + r] = Fraction(1)
    basis = [nstruct + r for r in range(m)]
    cost = [Fraction(0)] * (nstruct + m) + [Fraction(0)]
    for r in range(m):
        cost = [c - t for c, t in zip(cost, tableau[r])]
    for j in range(nstruct, nstruct + m):
        cost[j] += 1
    while True:
        entering = next((j for j in range(nstruct + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving_row = None
        best_ratio = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = r
        piv = tableau[leaving_row][entering]
        tableau[leaving_row] = [x / piv for x in tableau[leaving_row]]
        for r in range(m):
            if r != leaving_row and tableau[r][entering]:
                c = tableau[r][entering]
                tableau[r] = [x - c * y for x, y in zip(tableau[r], tableau[leaving_row])]
        if cost[entering]:
            c = cost[entering]
            cost = [x - c * y for x, y in zip(cost, tableau[leaving_row])]
        basis[leaving_row] = entering
    if -cost[-1] > 0:
        return None
    x = [Fraction(0)] * nstruct
    for r, var in enumerate(basis):
        if var < nstruct:
            x[var] = tableau[r][-1]
    return x


def simplex_on_fractions(columns, rhs):
    """``linalg._simplex_phase1`` on ``Fraction`` columns and right-hand
    side, each cleared of denominators by the lcm of its own."""

    def cleared(xs):
        s = lcm(*(x.denominator for x in xs))
        return [x.numerator * (s // x.denominator) for x in xs], s

    pairs = [cleared(col) for col in columns]
    b, t = cleared(rhs)
    return linalg._simplex_phase1([c for c, _ in pairs], [s for _, s in pairs], b, t)


lp_entries = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def lp_systems(draw):
    """A x = b with columns drawn from a small pool, so zero and repeated
    columns are common, and small entries, so ratio ties are.  b is
    either random (often with negative entries or infeasible) or A x
    for a nonnegative x (feasible, often degenerate)."""
    m = draw(st.integers(1, 4))
    column = st.lists(lp_entries, min_size=m, max_size=m)
    integral = st.lists(st.integers(-3, 3).map(Fraction), min_size=m, max_size=m)
    pool = draw(st.lists(st.one_of(column, integral), min_size=1, max_size=4))
    pool.append([Fraction(0)] * m)
    columns = [list(c) for c in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))]
    if draw(st.booleans()):
        weights = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3)])
        x = draw(st.lists(weights, min_size=len(columns), max_size=len(columns)))
        rhs = [sum(xi * col[r] for xi, col in zip(x, columns)) for r in range(m)]
    else:
        rhs = draw(st.lists(lp_entries, min_size=m, max_size=m))
    return columns, rhs


@given(lp_systems())
@settings(max_examples=300, deadline=None)
def test_fraction_free_simplex_matches_fraction_reference(system):
    columns, rhs = system
    expected = reference_simplex_phase1(columns, rhs)
    assert simplex_on_fractions(columns, rhs) == expected
    if expected is not None:
        assert all(v >= 0 for v in expected)
        for r, b in enumerate(rhs):
            assert sum(v * col[r] for v, col in zip(expected, columns)) == b


def test_fraction_free_simplex_breaks_ratio_ties_by_basis():
    # a tie in a later ratio test, where the first tied row does not hold
    # the basic variable of least index; random systems of this size hit
    # one about once in 20000 draws, so it is pinned here
    columns = [[Fraction(a) for a in col] for col in ([0, 2, -1], [-1, 0, 1], [1, 2, -1], [1, 0, 1])]
    rhs = [Fraction(1), Fraction(2), Fraction(1)]
    expected = [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(3, 2)]
    assert reference_simplex_phase1(columns, rhs) == expected
    assert simplex_on_fractions(columns, rhs) == expected


def test_serialization_round_trip():
    a = SymMatrix([[Fraction(5, 3), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(7)]])
    assert SymMatrix.from_json_dict(a.to_json_dict()).rows == a.rows
