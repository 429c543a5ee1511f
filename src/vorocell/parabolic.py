"""Ordered-partition combinatorics for the standard parabolic subgroups
of SL_n: block dimension counts, the finite quotient of the rational
building, and the labeling of Weyl-chamber faces by partitions.

An ordered partition of n with k parts corresponds to the standard
block upper-triangular subgroup with those block sizes; it is proper
(a genuine parabolic) when k >= 2.  Everything here is exact integer
combinatorics — no matrix groups are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .cells import SimplicialComplex


@dataclass(frozen=True)
class Partition:
    """An ordered partition (composition) of a positive integer."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def is_proper(self) -> bool:
        return len(self.parts) >= 2

    def cuts(self) -> frozenset[int]:
        """Positions in 1..n-1 where consecutive blocks meet."""
        acc = 0
        out = []
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return frozenset(out)

    def label(self) -> str:
        if all(p <= 9 for p in self.parts):
            return "".join(str(p) for p in self.parts)
        return "-".join(str(p) for p in self.parts)

    def __str__(self) -> str:
        return self.label()


def partition_from_cuts(n: int, cuts: Iterable[int]) -> Partition:
    """The ordered partition of n whose blocks break at the given
    positions (each in 1..n-1)."""
    cut_list = sorted(set(cuts))
    if any(c < 1 or c >= n for c in cut_list):
        raise ValueError(f"cut positions must lie in 1..{n - 1}: {cut_list}")
    bounds = [0] + cut_list + [n]
    return Partition(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def proper_partitions(n: int) -> list[Partition]:
    """All ordered partitions of n with at least two parts.

    There are 2^(n-1) - 1 of them, one per nonempty subset of the n-1
    possible cut positions.  Finest first, then lexicographic.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    out = []
    for k in range(1, n):
        for cuts in combinations(range(1, n), k):
            out.append(partition_from_cuts(n, cuts))
    out.sort(key=lambda p: (-len(p.parts), p.parts))
    return out


@dataclass(frozen=True)
class ParabolicData:
    """Block dimensions of the three factors P = N A M for the standard
    parabolic attached to an ordered partition."""

    partition: Partition
    dim_unipotent: int
    dim_split_center: int
    dim_semisimple: int


def langlands_dims(p: Partition) -> ParabolicData:
    """Dimensions of the unipotent radical, split-center, and
    semisimple factors for the block parabolic of shape ``p``.

    The unipotent radical fills the strictly-above-block entries, the
    split center has one parameter per block minus the determinant
    constraint, and the semisimple part is a product of SL's of the
    block sizes.
    """
    if not p.is_proper:
        raise ValueError(f"partition {p} is not proper (needs >= 2 parts)")
    parts = p.parts
    dim_n = sum(a * b for i, a in enumerate(parts) for b in parts[i + 1 :])
    dim_a = len(parts) - 1
    dim_m = sum(a * a - 1 for a in parts)
    return ParabolicData(p, dim_n, dim_a, dim_m)


@dataclass(frozen=True)
class BuildingQuotient:
    """The finite quotient of the rational Tits building for SL_n(Z).

    One simplex per proper ordered partition; the simplex on cut
    positions S has the vertices {one-cut partitions at each s in S},
    and taking faces corresponds to coarsening the partition.  As a
    complex it is the full (n-2)-simplex on the cut positions 1..n-1.
    """

    n: int
    complex: SimplicialComplex

    def simplex_of(self, p: Partition) -> tuple[int, ...]:
        if p.n != self.n or not p.is_proper:
            raise ValueError(f"{p} is not a proper partition of {self.n}")
        return tuple(sorted(p.cuts()))

    def partition_of(self, simplex: Sequence[int]) -> Partition:
        return partition_from_cuts(self.n, simplex)

    def labeled_simplices(self) -> dict[tuple[int, ...], Partition]:
        out = {}
        for faces in self.complex.faces().values():
            for f in faces:
                out[f] = self.partition_of(f)
        return out

    def vertices(self) -> list[Partition]:
        return [self.partition_of(v) for v in self.complex.faces()[0]]


def building_quotient(n: int) -> BuildingQuotient:
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    top = tuple(range(1, n))
    return BuildingQuotient(n, SimplicialComplex([top]))


def chamber_face_label(n: int, walls: Iterable[int]) -> Partition:
    """The partition labeling the chamber face on which exactly the
    given simple-root walls stay active (positive).

    Walls are numbered 1..n-1.  An active wall keeps the cut between
    blocks at that position; an omitted wall merges the adjacent
    blocks.  The empty set would name the cone apex and is rejected.
    """
    wall_set = set(walls)
    if not wall_set:
        raise ValueError("at least one wall must be active")
    if any(w < 1 or w >= n for w in wall_set):
        raise ValueError(f"wall indices must lie in 1..{n - 1}: {sorted(wall_set)}")
    return partition_from_cuts(n, wall_set)


def walls_of_face(p: Partition) -> frozenset[int]:
    """Inverse of the face labeling: the active walls are the proper
    partial sums of the partition."""
    if not p.is_proper:
        raise ValueError(f"partition {p} is not proper (needs >= 2 parts)")
    return p.cuts()
