"""Checks for the symplectic 4-dimensional cell-model accountant.

The oracle here is elementary counting done inline: handshake sums,
Euler characteristics, and pairing totals recomputed from the raw
inventory numbers rather than through the module's own report code.
"""

import dataclasses
import json

import pytest

from vorocell.sp4 import (
    PolytopeShell,
    adjacency_accounting,
    builtin_shells,
    default_model,
    pairing_accountant,
    verify_chain,
    verify_model,
)

# -- inline oracles: raw arithmetic on the published inventories -----------------


def euler_oracle(v, e, f):
    return v - e + f == 2


def handshake_oracle(face_types, e):
    return sum(s * c for s, c in face_types.items()) == 2 * e


def face_multiset(shell):
    """A shell's 2-face counts by polygon edge count."""
    return dict(shell.face_types)


def verify_euler(model):
    """The alternating sum of the boundary f-vector vanishes (S3)."""
    v, e, f, c = model.f_vector
    return v - e + f - c == 0


def failures(report):
    """The names of a report's identities that do not hold."""
    return tuple(i.name for i in report.identities if not i.passed)


def test_shell_inventories_by_hand():
    # pyramid: 4 triangles + 1 square
    assert handshake_oracle({3: 4, 4: 1}, 8)
    assert euler_oracle(5, 8, 5)
    # crystal: 12 triangles + 12 squares
    assert handshake_oracle({3: 12, 4: 12}, 42)
    assert euler_oracle(20, 42, 24)
    # vertebra: 12 triangles + 12 squares + 2 hexagons
    assert handshake_oracle({3: 12, 4: 12, 6: 2}, 48)
    assert euler_oracle(24, 48, 26)


def test_builtin_shells_match_oracle():
    shells = builtin_shells()
    expected = {
        "pyramid": (5, 8, 5),
        "crystal": (20, 42, 24),
        "vertebra": (24, 48, 26),
    }
    assert set(shells) == set(expected)
    for name, shell in shells.items():
        assert shell.f_vector == expected[name]
        assert euler_oracle(*shell.f_vector)
        assert handshake_oracle(face_multiset(shell), shell.edges)


def test_shell_constructor_rejects_bad_counts():
    with pytest.raises(ValueError, match="handshake"):
        PolytopeShell("broken", 5, 9, ((3, 4), (4, 1)))
    with pytest.raises(ValueError, match="Euler"):
        PolytopeShell("broken", 6, 8, ((3, 4), (4, 1)))


# -- full model ----------------------------------------------------------------


def test_default_model_verifies():
    report = verify_model()
    assert report.ok
    assert not failures(report)
    assert len(report.identities) == 13
    assert len(report.caveats) == 2


def test_euler_of_boundary_by_hand():
    model = default_model()
    v, e, f2, f3 = model.f_vector
    assert v - e + f2 - f3 == 0  # boundary of a 4-polytope: chi of S^3
    assert verify_euler(model)


def test_chain_identity():
    report = verify_chain(default_model())
    assert report.ok


def test_pairing_accountant():
    report = pairing_accountant(default_model())
    assert report.ok
    names = {i.name for i in report.identities}
    assert any("pair" in n for n in names)


def test_adjacency_accounting():
    model = default_model()
    report = adjacency_accounting(model)
    assert report.ok
    # oracle: each facet contributes (cells through it) - 1 neighbors
    total = sum(
        model.facet_counts[kind] * (model.cells_through[kind] - 1)
        for kind in model.facet_counts
    )
    assert total == model.stated_neighbors == 112


# -- negative controls: each perturbation must be caught ---------------------------


def test_perturbed_f_vector_fails():
    model = default_model()
    v, e, f2, f3 = model.f_vector
    bad = dataclasses.replace(model, f_vector=(v + 1, e, f2, f3))
    report = verify_model(bad)
    assert not report.ok
    assert failures(report)


def test_perturbed_facet_inventory_fails():
    model = default_model()
    bad = dataclasses.replace(model, facet_counts={"crystal": 0, "vertebra": 4, "pyramid": 36})
    assert not verify_model(bad).ok


def test_perturbed_cells_through_fails():
    model = default_model()
    bad = dataclasses.replace(model, cells_through={"crystal": 3, "vertebra": 3, "pyramid": 3})
    assert not verify_model(bad).ok


def test_perturbed_neighbor_count_fails():
    bad = dataclasses.replace(default_model(), stated_neighbors=113)
    assert not verify_model(bad).ok


def test_perturbed_chain_vertices_fails():
    bad = dataclasses.replace(default_model(), chain_vertices=71)
    assert not verify_model(bad).ok


# -- report shape -------------------------------------------------------------


def test_report_json_round_trip():
    report = verify_model()
    doc = report.to_json_dict()
    assert doc["format"] == 1
    assert doc["pass"] is True
    assert len(doc["identities"]) == 13
    assert all(
        {"name", "claim", "computed", "expected", "pass"} <= set(i)
        for i in doc["identities"]
    )
    json.dumps(doc)  # must be serializable as-is


def test_identities_record_numbers():
    report = verify_model()
    for ident in report.identities:
        assert ident.computed == ident.expected
        assert ident.passed
