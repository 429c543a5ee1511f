"""Reduction of positive-definite forms onto a perfect-form catalog.

Every positive-definite matrix lies in some unimodular translate of the
domain cone of one catalogued perfect form.  The walk below finds that
translate: it pulls the target back through the accumulated unimodular
change of basis, checks the facet inequalities of the current class's
domain, and crosses the most-violated facet into the neighboring class
until all inequalities hold.  The trace pairing of the current class
form with the pulled-back target strictly decreases at each crossing,
which is what makes the walk terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .linalg import SymMatrix, cone_membership, is_positive_definite, mat_mul, transpose
from .perfect import Catalog, CatalogError, unimodular_inverse

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
    rays: Sequence[SymMatrix], target: SymMatrix
) -> tuple[Fraction, ...]:
    """Strictly positive weights over *all* rays summing to target.

    Exists exactly when the target sits in the relative interior of the
    cone; found by pushing the target slightly toward the ray barycenter
    and solving the resulting membership problem exactly.
    """
    total = rays[0]
    for r in rays[1:]:
        total = total + r
    eps = Fraction(1)
    for _ in range(64):
        shifted = target + total.scale(-eps)
        member = cone_membership(list(rays), shifted)
        if member is not None:
            return tuple(c + eps for c in member.coefficients)
        eps /= 2
    raise WalkDivergenceError("no strictly positive certificate on the face")


def _pairing_coordinates(y: SymMatrix) -> list[int]:
    """y's upper triangle, off-diagonals doubled, times a positive integer:
    dotted with a facet normal R it is a positive multiple of <R, y>."""
    n = y.n
    coords = [y.rows[i][j] * (1 if i == j else 2) for i in range(n) for j in range(i, n)]
    scale = lcm(*(x.denominator for x in coords))
    return [x.numerator * (scale // x.denominator) for x in coords]


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
    w = [[int(r == c) for c in range(n)] for r in range(n)]
    y = x
    trace: list[tuple[int, int]] = []
    potential = catalog.records[j].form.pair(y)
    for step in range(MAX_STEPS):
        record = catalog.records[j]
        facets = record.facets
        coords = _pairing_coordinates(y)
        values = [sum(map(mul, f.normal, coords)) for f in facets]
        worst = min(range(len(facets)), key=lambda i: values[i])
        if values[worst] >= 0:
            active = [i for i, v in enumerate(values) if v == 0]
            if active:
                support = frozenset(facets[active[0]].ray_support)
                for i in active[1:]:
                    support &= frozenset(facets[i].ray_support)
            else:
                support = frozenset(range(len(record.min_data.vectors)))
            support_idx = tuple(sorted(support))
            if not support_idx:
                raise WalkDivergenceError("empty face support for a nonzero form")
            coeffs = _positive_certificate(
                [SymMatrix.rank_one(record.min_data.vectors[i]) for i in support_idx], y
            )
            return (
                ReductionResult(
                    class_index=j,
                    witness=tuple(tuple(row) for row in w),
                    support=support_idx,
                    coefficients=coeffs,
                    steps=step,
                ),
                trace,
            )
        trace.append((j, worst))
        j2, u = catalog.edge(j, worst)
        y = y.conjugate(transpose(u))
        w = mat_mul(w, unimodular_inverse(u))
        j = j2
        next_potential = catalog.records[j].form.pair(y)
        if next_potential >= potential:
            raise WalkDivergenceError("walk potential failed to decrease")
        potential = next_potential
    raise WalkDivergenceError(f"no containing domain within {MAX_STEPS} steps")


def voronoi_reduce(x: SymMatrix, catalog: Catalog) -> ReductionResult:
    """Locate the translated domain cone containing a positive form."""
    result, _trace = reduce_with_trace(x, catalog)
    return result
