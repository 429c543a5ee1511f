"""Reduction of positive-definite forms onto a perfect-form catalog.

Every positive-definite matrix lies in some unimodular translate of the
domain cone of one catalogued perfect form.  The walk below finds that
translate: it pulls the target back through the accumulated unimodular
change of basis, checks the facet inequalities of the current class's
domain, and crosses the most-violated facet into the neighboring class
until all inequalities hold.  The trace pairing of the current class
form with the pulled-back target strictly decreases at each crossing,
which is what makes the walk terminate.

The walk runs in integers: the pulled-back target is kept as integer
rows over one positive denominator, which a unimodular change of basis
leaves alone, so each crossing is an integer conjugation and each
facet test an integer dot product.  The final certificate pushes the
target toward the sum of its face's rays by 2^-k, with the least k read
off the facet values the walk already holds, and solves one
cone-membership LP there on the fraction-free tableau of ``linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import obs
from .linalg import (
    SymMatrix,
    cone_membership,
    is_positive_definite,
    mat_mul,
    transpose,
    unimodular_inverse,
)
from .perfect import Catalog, CatalogError, PerfectFormRecord, _set_bits

MAX_STEPS = 10_000


class WalkDivergenceError(RuntimeError):
    """The facet walk failed to settle inside a domain cone."""


@dataclass(frozen=True)
class ReductionResult:
    """Where a form landed: which class, through which change of basis.

    ``witness`` is the unimodular W such that the rank-one matrices
    q(W m), for m over the class record's minimal vectors, span the
    translated domain cone containing the input.  ``support`` indexes
    the rays of the face whose relative interior holds the input, and
    ``coefficients`` are the strictly positive weights writing the
    input as a combination of those translated rays.
    """

    class_index: int
    witness: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    steps: int

    def translated_rays(self, catalog: Catalog) -> list[SymMatrix]:
        record = catalog.records[self.class_index]
        w = [list(row) for row in self.witness]
        out = []
        for i in self.support:
            m = record.min_data.vectors[i]
            image = tuple(sum(w[r][c] * m[c] for c in range(len(m))) for r in range(len(w)))
            out.append(SymMatrix.rank_one(image))
        return out


def _positive_certificate(
    record: PerfectFormRecord,
    support: Sequence[int],
    y: Sequence[Sequence[int]],
    den: int,
    values: Sequence[int],
) -> tuple[tuple[Fraction, ...], int]:
    """Strictly positive weights over *all* rays q(v), v over the record's
    minimal vectors indexed by ``support``, summing to the form y / den,
    and the exponent k of the push that found them.

    ``values[i]`` is <F, y> for the record's i-th facet normal F.  The
    weights exist exactly when y / den sits in the relative interior of
    the cone G of the support's rays.  They are found by pushing the
    target toward the ray sum T = sum_v q(v), to y / den - 2^-k T, and
    solving the membership LP there exactly: each weight is its LP
    coefficient plus 2^-k.

    The support spans a face G of the record's cone C, so G is C cut
    with the span of G, and y / den and T both lie in that span.  The
    pushed target therefore lies in G exactly when it meets every facet
    inequality of C.  A facet with <F, T> = 0 contains G, and the push
    leaves <F, y> alone; a facet with <F, T> > 0 asks for
    2^k <F, y> >= den <F, T>.  The least k meeting all of these is read
    off the values, and the one LP solved at that k is the last LP of
    halving eps from 1, with the same pivots.  A facet with <F, T> > 0
    and <F, y> <= 0 puts the target on the boundary of G, where no
    strictly positive weights exist.
    """
    n = len(y)
    vectors = [record.min_data.vectors[i] for i in support]
    total = [[sum(v[i] * v[j] for v in vectors) for j in range(n)] for i in range(n)]
    total_coords = _pairing_coordinates(total)
    k = 0
    for f, a in zip(record.facets, values):
        b = den * sum(map(mul, f.normal, total_coords))
        if b > 0:
            if a <= 0:
                raise WalkDivergenceError("no strictly positive certificate on the face")
            # the least e >= 0 with a << e >= b; a << e then has b's bit length or one more
            e = max(0, b.bit_length() - a.bit_length())
            k = max(k, e + ((a << e) < b))
    if k >= 64:
        raise WalkDivergenceError("no strictly positive certificate on the face")
    # y / den - total / 2^k, over the denominator 2^k * den
    shifted = SymMatrix._over(
        [[(a << k) - den * t for a, t in zip(row, trow)] for row, trow in zip(y, total)],
        den << k,
    )
    member = cone_membership([SymMatrix.rank_one(v) for v in vectors], shifted)
    if member is None:
        raise WalkDivergenceError("no strictly positive certificate on the face")
    eps = Fraction(1, 1 << k)
    return tuple(c + eps for c in member.coefficients), k


def _pairing_coordinates(y: Sequence[Sequence[int]]) -> list[int]:
    """The upper triangle of the integer matrix y, off-diagonals doubled:
    dotted with the upper triangle of a symmetric R it gives <R, y>."""
    n = len(y)
    return [y[i][j] * (1 if i == j else 2) for i in range(n) for j in range(i, n)]


def _potential(record: PerfectFormRecord, coords: list[int]) -> Fraction:
    """The walk's potential for the pulled-back form y / den with
    pairing coordinates ``coords``: den times the trace pairing of the
    record's form (normalized to mu = 1) with y / den.  den stays fixed
    along the walk, so the potentials compare as the pairings do."""
    q = record.integral_form.num  # over den = 1
    upper = (q[i][j] for i in range(len(q)) for j in range(i, len(q)))
    return Fraction(sum(map(mul, upper, coords)), record.min_data.mu)


def reduce_with_trace(
    x: SymMatrix, catalog: Catalog
) -> tuple[ReductionResult, list[tuple[int, int]]]:
    """Run the facet walk, returning the result and the crossing trace.

    The trace lists (class_index, facet_index) for each facet crossed,
    in order.  Requires a complete catalog in the matching dimension.
    """
    if not catalog.complete:
        raise CatalogError("reduction requires a complete catalog")
    if x.n != catalog.n:
        raise ValueError(f"form has dimension {x.n}, catalog has {catalog.n}")
    if not is_positive_definite(x):
        raise ValueError("form is not positive definite")

    n = x.n
    j = 0
    # the pulled-back form is y / den = v x v^T for the product v of the
    # unimodular U crossed so far; crossing one conjugates the integer
    # rows y by U and keeps den, and the witness is v^-1
    v = [[int(r == c) for c in range(n)] for r in range(n)]
    den = x.den
    y = x.num
    trace: list[tuple[int, int]] = []
    coords = _pairing_coordinates(y)
    potential = _potential(catalog.records[j], coords)
    for step in range(MAX_STEPS):
        record = catalog.records[j]
        facets = record.facets
        values = [sum(map(mul, f.normal, coords)) for f in facets]
        worst = min(range(len(facets)), key=values.__getitem__)
        if values[worst] >= 0:
            # the face's rays: those on every facet the form lies on
            support = (1 << len(record.min_data.vectors)) - 1
            for facet, value in zip(facets, values):
                if value == 0:
                    support &= facet.mask
            support_idx = _set_bits(support)
            if not support_idx:
                raise WalkDivergenceError("empty face support for a nonzero form")
            coeffs, k = _positive_certificate(record, support_idx, y, den, values)
            obs.add("reduction", steps=step, lps=1, eps_exponent=k)
            return (
                ReductionResult(
                    class_index=j,
                    witness=tuple(map(tuple, unimodular_inverse(v))),
                    support=support_idx,
                    coefficients=coeffs,
                    steps=step,
                ),
                trace,
            )
        trace.append((j, worst))
        j, u = catalog.edge(j, worst)
        y = mat_mul(u, mat_mul(y, transpose(u)))
        v = mat_mul(u, v)
        coords = _pairing_coordinates(y)
        next_potential = _potential(catalog.records[j], coords)
        if next_potential >= potential:
            raise WalkDivergenceError("walk potential failed to decrease")
        potential = next_potential
    raise WalkDivergenceError(f"no containing domain within {MAX_STEPS} steps")


def voronoi_reduce(x: SymMatrix, catalog: Catalog) -> ReductionResult:
    """Locate the translated domain cone containing a positive form."""
    result, _trace = reduce_with_trace(x, catalog)
    return result
