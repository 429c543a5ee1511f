"""Combinatorial accounting for the boundary of the rank-two symplectic
retract's 4-cell.

The closure of the 4-cell is a ball whose boundary 3-sphere is tiled by
three kinds of 3-cells — crystals, vertebrae, and pyramids.  Full face
lattices for the larger shells are not reconstructible from face-type
counts alone, so this module is a verifier, not a constructor: it works
with f-vectors, 2-face type multisets, and stated incidence counts, and
checks every identity those numbers must satisfy in exact integer
arithmetic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional

GON_NAMES = {3: "triangle", 4: "square", 6: "hexagon"}


def _gon_name(sides: int) -> str:
    return GON_NAMES.get(sides, f"{sides}-gon")


@dataclass(frozen=True)
class PolytopeShell:
    """A 3-dimensional cell described by its 2-face type multiset.

    ``face_types`` maps a polygon's edge count to its multiplicity.
    Vertex and edge counts follow from the handshake identity (every
    edge lies in two 2-faces) and the Euler relation, both of which are
    enforced on construction.
    """

    name: str
    vertices: int
    edges: int
    face_types: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        incidences = sum(sides * count for sides, count in self.face_types)
        if incidences != 2 * self.edges:
            raise ValueError(
                f"{self.name}: edge/2-face handshake fails "
                f"({incidences} != 2*{self.edges})"
            )
        if self.vertices - self.edges + self.face_count != 2:
            raise ValueError(f"{self.name}: Euler relation fails")

    @property
    def face_count(self) -> int:
        return sum(count for _, count in self.face_types)

    @property
    def f_vector(self) -> tuple[int, int, int]:
        return (self.vertices, self.edges, self.face_count)


def _shell(name: str, face_types: Mapping[int, int]) -> PolytopeShell:
    items = tuple(sorted(face_types.items()))
    faces = sum(c for _, c in items)
    edges2 = sum(s * c for s, c in items)
    if edges2 % 2:
        raise ValueError(f"{name}: odd edge incidence total {edges2}")
    edges = edges2 // 2
    return PolytopeShell(name, 2 + edges - faces, edges, items)


def builtin_shells() -> dict[str, PolytopeShell]:
    """The three 3-cell types: pyramid, crystal, vertebra.

    Only the 2-face multisets are primitive data; vertex and edge
    counts are derived (handshake, then Euler)."""
    return {
        "pyramid": _shell("pyramid", {3: 4, 4: 1}),
        "crystal": _shell("crystal", {3: 12, 4: 12}),
        "vertebra": _shell("vertebra", {3: 12, 4: 12, 6: 2}),
    }


@dataclass(frozen=True)
class FourCellModel:
    """Numerical model of the 4-cell closure P and its boundary.

    ``facet_counts`` is the facet inventory of the boundary 3-sphere by
    shell type; ``f_vector`` is (vertices, edges, 2-faces, facets) of
    that boundary; ``cells_through`` states how many 4-cells contain a
    facet of each type; the remaining fields carry the stated global
    counts the verifier checks against.
    """

    shells: Mapping[str, PolytopeShell]
    facet_counts: Mapping[str, int]
    f_vector: tuple[int, int, int, int]
    cells_through: Mapping[str, int]
    stated_neighbors: int
    chain_vertices: int
    circle_vertices: int
    hexagon_gluings: int


def default_model() -> FourCellModel:
    return FourCellModel(
        shells=builtin_shells(),
        facet_counts={"crystal": 4, "vertebra": 4, "pyramid": 32},
        f_vector=(76, 216, 180, 40),
        cells_through={"crystal": 3, "vertebra": 3, "pyramid": 4},
        stated_neighbors=112,
        chain_vertices=72,
        circle_vertices=4,
        hexagon_gluings=4,
    )


def perturbed(model: FourCellModel, **changes) -> FourCellModel:
    """A copy of the model with fields overridden (negative controls)."""
    return dataclasses.replace(model, **changes)


@dataclass(frozen=True)
class Identity:
    name: str
    claim: str
    computed: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.computed == self.expected

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "computed": self.computed,
            "expected": self.expected,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Report:
    title: str
    identities: tuple[Identity, ...]
    caveats: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(i.passed for i in self.identities)

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "title": self.title,
            "identities": [i.to_json_dict() for i in self.identities],
            "caveats": list(self.caveats),
            "pass": self.ok,
        }


def verify_chain(model: FourCellModel) -> Report:
    """Vertex accounting for the chain-of-vertebrae assembly.

    Four vertebrae glued in a cycle along hexagonal faces lose six
    vertices per gluing; adding the circle vertices must reproduce the
    boundary's vertex count.  Also checks the global facet inventory
    and 2-face pairing.
    """
    vertebra = model.shells["vertebra"]
    hexagon = 6
    chain = (
        model.facet_counts.get("vertebra", 0) * vertebra.vertices
        - model.hexagon_gluings * hexagon
    )
    incidences = sum(
        model.facet_counts.get(name, 0) * shell.face_count
        for name, shell in model.shells.items()
    )
    identities = (
        Identity(
            "chain-vertices",
            "four vertebrae glued along hexagons leave 72 vertices",
            chain,
            model.chain_vertices,
        ),
        Identity(
            "total-vertices",
            "chain vertices plus circle vertices exhaust the boundary",
            model.chain_vertices + model.circle_vertices,
            model.f_vector[0],
        ),
        Identity(
            "facet-inventory",
            "facet counts by type sum to the boundary facet count",
            sum(model.facet_counts.values()),
            model.f_vector[3],
        ),
        Identity(
            "two-face-pairing",
            "facet 2-face incidences double-count the boundary 2-faces",
            incidences,
            2 * model.f_vector[2],
        ),
    )
    caveats = (
        "the crystal's 20 vertices split as 2 on the circle plus 18 in "
        "the chain, which is not obviously consistent with building it "
        "from two 8-vertex chain subsets; the discrepancy is recorded, "
        "not resolved",
    )
    return Report("chain assembly", identities, caveats)


def pairing_accountant(model: FourCellModel) -> Report:
    """Per-polygon-type double counting of 2-face incidences.

    Every 2-face of the closed boundary lies in exactly two facets, so
    for each polygon type the facet incidences must be even, and the
    halved totals must sum to the boundary's 2-face count.
    """
    per_type: dict[int, int] = {}
    for name, count in model.facet_counts.items():
        for sides, mult in model.shells[name].face_types:
            per_type[sides] = per_type.get(sides, 0) + count * mult
    identities = []
    paired_total = 0
    for sides in sorted(per_type):
        total = per_type[sides]
        identities.append(
            Identity(
                f"{_gon_name(sides)}-parity",
                f"{_gon_name(sides)} incidences pair up evenly",
                total % 2,
                0,
            )
        )
        paired_total += total // 2
    identities.append(
        Identity(
            "paired-two-faces",
            "paired incidences account for every boundary 2-face",
            paired_total,
            model.f_vector[2],
        )
    )
    return Report("2-face pairing", tuple(identities))


def adjacency_accounting(model: FourCellModel) -> Report:
    """Counts the 4-cells met along facets of the closure.

    Each facet of type t lies in ``cells_through[t]`` 4-cells, hence is
    shared with ``cells_through[t] - 1`` others; summing over the facet
    inventory must reproduce the stated neighbor count.
    """
    total = sum(
        count * (model.cells_through[name] - 1)
        for name, count in model.facet_counts.items()
    )
    identities = (
        Identity(
            "facet-neighbors",
            "facet-sharing sums to the stated number of adjacent 4-cells",
            total,
            model.stated_neighbors,
        ),
    )
    caveats = (
        "the sum counts neighbors with multiplicity; it matches the "
        "stated total exactly only under the assumption that all "
        "facet-neighbors are distinct 4-cells",
    )
    return Report("4-cell adjacency", identities, caveats)


def verify_model(model: Optional[FourCellModel] = None) -> Report:
    """Every identity the model must satisfy, in one report."""
    if model is None:
        model = default_model()
    v, e, f, c = model.f_vector
    euler = Identity(
        "euler",
        "alternating f-vector sum of the boundary 3-sphere vanishes",
        v - e + f - c,
        0,
    )
    shell_checks = []
    for name in sorted(model.shells):
        shell = model.shells[name]
        shell_checks.append(
            Identity(
                f"{name}-euler",
                f"{name} satisfies the polyhedral Euler relation",
                shell.vertices - shell.edges + shell.face_count,
                2,
            )
        )
    chain = verify_chain(model)
    pairing = pairing_accountant(model)
    adjacency = adjacency_accounting(model)
    identities = (
        (euler,)
        + tuple(shell_checks)
        + chain.identities
        + pairing.identities
        + adjacency.identities
    )
    caveats = chain.caveats + pairing.caveats + adjacency.caveats
    return Report("4-cell boundary accounting", identities, caveats)
