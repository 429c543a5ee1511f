"""End-to-end command-line checks via subprocess.

Every invocation must be reproducible byte-for-byte, error messages
must carry file/line positions, and exit codes follow the contract:
0 success, 1 verification failure, 2 usage or precondition error.
"""

import collections
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from aut_reference import reference_automorphism_group
from cell_helpers import to_regular
from hypothesis import given, settings
from hypothesis import strategies as st

from vorocell.cells import RegularComplex, SimplicialComplex, barycentric_subdivision
from vorocell.linalg import SymMatrix
from vorocell.perfect import Catalog, PerfectFormRecord, enumerate_perfect_forms

CLI = [sys.executable, "-m", "vorocell.cli"]


def run(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=merged, timeout=300
    )


def write_complex(path, maximal_faces):
    doc = SimplicialComplex(maximal_faces).to_json_dict()
    path.write_text(json.dumps(doc))
    return str(path)


OCTAHEDRON = [
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]

RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


# -- happy paths -----------------------------------------------------------------


def test_building_n4():
    r = run("building", "--n", "4")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["count"] == 7
    assert doc["f_vector"] == [3, 3, 1]
    assert {s["partition"] for s in doc["simplices"]} == {
        "13", "22", "31", "112", "121", "211", "1111",
    }


def test_sp4_verify_passes():
    r = run("sp4", "verify")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["pass"] is True
    assert len(doc["identities"]) == 13


def test_shell_sphere(tmp_path):
    path = write_complex(tmp_path / "oct.json", OCTAHEDRON)
    r = run("shell", "--complex", path)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["status"] == "sphere"
    assert doc["facets"] == 8


def test_shell_ball(tmp_path):
    path = write_complex(tmp_path / "tri.json", [(0, 1, 2)])
    r = run("shell", "--complex", path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "ball"


def test_sl2_report():
    r = run("sl2", "--level", "7")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert (doc["triangles"], doc["edges"], doc["cusps"]) == (56, 84, 24)
    assert doc["genus"] == 3
    assert doc["h1_rank"] == 29
    assert doc["vcd_vanishing"] is True


def test_homology_of_simplicial(tmp_path):
    path = write_complex(tmp_path / "oct.json", OCTAHEDRON)
    r = run("homology", "--complex", path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["betti"] == [1, 0, 1]
    r = run("homology", "--complex", path, "--integer")
    doc = json.loads(r.stdout)
    assert doc["betti"] == [1, 0, 1]
    assert doc["torsion"] == [[], [], []]


# -- failure exit codes -------------------------------------------------------------


def test_shell_moebius_band_output(tmp_path):
    moebius = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]
    path = write_complex(tmp_path / "moebius.json", moebius)
    r = run("shell", "--complex", path)
    assert r.returncode == 1
    assert r.stdout == (
        '{\n  "format": 1,\n  "status": "unknown",\n'
        '  "detail": "search space exhausted without a shelling",\n'
        '  "facets": 5,\n  "nodes_used": 35\n}\n'
    )


def test_shell_unshellable_is_exit_one(tmp_path):
    path = write_complex(tmp_path / "two.json", [(0, 1, 2), (3, 4, 5)])
    r = run("shell", "--complex", path)
    assert r.returncode == 1
    assert json.loads(r.stdout)["status"] == "unknown"


def test_shell_nonmanifold_is_exit_one(tmp_path):
    path = write_complex(tmp_path / "fan.json", [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    r = run("shell", "--complex", path)
    assert r.returncode == 1
    assert json.loads(r.stdout)["status"] == "not-pseudomanifold"


def test_malformed_json_positions(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"maximal_faces": [[0, 1')
    r = run("homology", "--complex", str(bad))
    assert r.returncode == 2
    assert f"{bad}:1:" in r.stderr
    assert "malformed JSON" in r.stderr


def test_deeply_nested_json_is_exit_two(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    r = run("homology", "--complex", str(deep))
    assert r.returncode == 2
    assert r.stderr == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("which", ["form", "catalog", "complex"])
def test_non_object_json_is_exit_two(tmp_path, which):
    good_form = tmp_path / "form.json"
    good_form.write_text(json.dumps({"n": 2, "rows": [["2", "1"], ["1", "2"]]}))
    bad = tmp_path / "bad.json"
    bad.write_text("[]" if which == "catalog" else "5")
    if which == "complex":
        r = run("homology", "--complex", str(bad))
    else:
        form = bad if which == "form" else good_form
        r = run("reduce", "--form", str(form), "--catalog", str(bad))
    assert r.returncode == 2
    assert f"{bad}: expected a JSON object" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("fault", ["long-integer", "not-utf8"])
@pytest.mark.parametrize(
    "command", ["homology", "shell", "reduce-form", "reduce-catalog", "enumerate-resume"]
)
def test_unreadable_json_is_exit_two(tmp_path, command, fault):
    # an integer literal past the digit limit of int(), or bytes that
    # are not UTF-8: each loader names the file in one line
    bad = tmp_path / "bad.json"
    if fault == "long-integer":
        bad.write_text('{"n": ' + "9" * 5000 + "}")
    else:
        bad.write_bytes(b'{"n": "\xff"}')
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": [["2", "1"], ["1", "2"]]}))
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(enumerate_perfect_forms(2).to_json_dict()))
    args = {
        "homology": ("homology", "--complex", bad),
        "shell": ("shell", "--complex", bad),
        "reduce-form": ("reduce", "--form", bad, "--catalog", catalog),
        "reduce-catalog": ("reduce", "--form", form, "--catalog", bad),
        "enumerate-resume": ("perfect", "enumerate", "--resume", bad),
    }[command]
    r = run(*map(str, args))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith(f"error: {bad}: ") and len(r.stderr.splitlines()) == 1
    assert ("5000 digits" if fault == "long-integer" else "not UTF-8") in r.stderr
    assert "Traceback" not in r.stderr


def test_missing_file_is_exit_two(tmp_path):
    r = run("shell", "--complex", str(tmp_path / "nope.json"))
    assert r.returncode == 2
    assert "no such file" in r.stderr


def test_bad_budget_is_exit_two(tmp_path):
    path = write_complex(tmp_path / "oct.json", OCTAHEDRON)
    r = run("shell", "--complex", path, "--budget", "0")
    assert r.returncode == 2
    assert "--budget" in r.stderr


def test_budget_default_is_the_search_default():
    """``shell`` without ``--budget`` searches with the module's default;
    ``cli`` writes the number itself so that start-up need not import
    ``shelling``."""
    from vorocell import cli, shelling

    ns = cli._build_parser().parse_args(["shell", "--complex", "sphere.json"])
    assert ns.budget == shelling.DEFAULT_BUDGET


def test_low_level_is_exit_two():
    r = run("sl2", "--level", "2")
    assert r.returncode == 2


def test_unknown_subcommand_is_exit_two():
    r = run("frobnicate")
    assert r.returncode == 2


def test_enumerate_dimension_one_is_exit_two():
    r = run("perfect", "enumerate", "--n", "1")
    assert r.returncode == 2
    assert "--n must be at least 2" in r.stderr
    assert "Traceback" not in r.stderr


def test_enumerate_resuming_a_dimension_one_catalog_names_the_file(tmp_path):
    cat = Catalog(1)
    cat.add(PerfectFormRecord(SymMatrix([[1]])))
    path = tmp_path / "cat1.json"
    path.write_text(json.dumps(cat.to_json_dict()))
    r = run("perfect", "enumerate", "--resume", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"{path}: catalog has dimension 1; enumeration needs at least 2" in r.stderr
    assert "--n" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [("sl2", "--level", "5", "--dual"), ("building", "--n", "3")],
)
def test_unwritable_emit_is_exit_two_with_empty_stdout(tmp_path, args):
    r = run(*args, "--emit", str(tmp_path / "missing" / "out.json"))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "missing" in r.stderr


def test_reduce_rejects_catalog_with_wrong_neighbor_count(tmp_path):
    cat = tmp_path / "cat2.json"
    assert run("perfect", "enumerate", "--n", "2", "--out", str(cat)).returncode == 0
    doc = json.loads(cat.read_text())
    doc["classes"][0]["neighbors"] = [0, 0]
    cat.write_text(json.dumps(doc))
    form = tmp_path / "far.json"  # the hexagonal form moved off its domain
    form.write_text(json.dumps({"n": 2, "rows": [["2", "15"], ["15", "114"]]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {cat}: class 0: neighbors has 2 entries for 3 facets\n"


def test_reduce_rejects_indefinite_form(tmp_path):
    cat = tmp_path / "cat2.json"
    assert run("perfect", "enumerate", "--n", "2", "--out", str(cat)).returncode == 0
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": [["1", "2"], ["2", "1"]]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {form}: form is not positive definite\n"


@pytest.mark.parametrize(
    "fault, edit, message",
    [
        ("form", lambda d: d["rows"][0].__setitem__(0, "1/0"),
         "bad form document: rows must hold integers or rational strings"),
        ("form", lambda d: d["rows"][0].__setitem__(0, float("inf")),
         "bad form document: rows must hold integers or rational strings"),
        ("catalog", lambda d: d.__setitem__("classes", []), "catalog has no classes"),
        ("form", lambda d: d.update(n=1, rows=[["2"]]),
         "form has dimension 1, catalog has 2"),
        ("catalog", lambda d: d.__setitem__("n", 3),
         "class 0: form has dimension 2, catalog has 3"),
        ("catalog", lambda d: d.__setitem__("n", 2.5), "n must be an integer"),
        ("form", lambda d: d["rows"][0].__setitem__(0, 0.1),
         "bad form document: rows must hold integers or rational strings, not fractional floats"),
        ("catalog", lambda d: d.__setitem__("classes", "ab"),
         "bad catalog document: classes must be a list of objects"),
        ("catalog", lambda d: d["classes"].__setitem__(0, 5),
         "bad catalog document: classes must be a list of objects"),
        ("catalog", lambda d: d.__setitem__("n", True), "bad catalog document: n must be an integer"),
    ],
    ids=["zero-denominator", "infinite-entry", "no-classes", "form-dimension",
         "catalog-dimension", "n-not-integral", "fractional-float-entry",
         "classes-not-a-list", "class-not-an-object", "n-true"],
)
def test_reduce_rejects_bad_documents(tmp_path, fault, edit, message):
    docs = {
        "catalog": json.loads(run("perfect", "enumerate", "--n", "2").stdout),
        "form": {"n": 2, "rows": [["4", "1"], ["1", "3"]]},
    }
    edit(docs[fault])
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    r = run("reduce", "--form", str(paths["form"]), "--catalog", str(paths["catalog"]))
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {paths[fault]}: ")
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "form, message",
    [
        ({"n": 2, "rows": [[True, 0], [0, 1]]},
         "rows must hold integers or rational strings, not booleans"),
        ({"n": True, "rows": [["4", "1"], ["1", "3"]]}, "n must be an integer"),
    ],
    ids=["entry-true", "n-true"],
)
def test_form_booleans_are_not_numbers(tmp_path, form, message):
    # JSON true and false would otherwise load as the integers 1 and 0
    cat = tmp_path / "cat2.json"
    assert run("perfect", "enumerate", "--n", "2", "--out", str(cat)).returncode == 0
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    r = run("reduce", "--form", str(path), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {path}: bad form document: {message}\n"


@pytest.mark.parametrize(
    "entry",
    ["1/0", "abc", float("inf"), "1e10000000"],
    ids=["zero-denominator", "not-a-number", "infinity", "huge-exponent"],
)
def test_form_entry_faults_name_the_field(tmp_path, entry):
    # Fraction's own messages name no field, and 10 ** 10000000 takes
    # seconds to build: the exponent must be refused before that
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 1, "rows": [[entry]]}))
    start = time.perf_counter()
    r = run("reduce", "--form", str(path), "--catalog", str(tmp_path / "cat.json"))
    assert time.perf_counter() - start < 5
    assert r.returncode == 2
    assert r.stderr == (
        f"error: {path}: bad form document: rows must hold integers or rational strings\n"
    )


def test_catalog_record_entry_fault_names_the_field(tmp_path):
    doc = json.loads(run("perfect", "enumerate", "--n", "2").stdout)
    entry = doc["classes"][0]
    entry["form"]["rows"][0][0] = "1/0"
    entry["hash"] = Catalog._record_hash({k: entry[k] for k in ("form", "mu", "min_vectors")})
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(doc))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": [["4", "1"], ["1", "3"]]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == (
        f"error: {cat}: bad catalog document: rows must hold integers or rational strings\n"
    )


def test_catalog_without_n_names_the_field(tmp_path):
    doc = json.loads(run("perfect", "enumerate", "--n", "2").stdout)
    del doc["n"]
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(doc))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": [["4", "1"], ["1", "3"]]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {cat}: bad catalog document: missing field 'n'\n"


def test_catalog_format_true_is_refused(tmp_path):
    # JSON true compares equal to 1, so a plain comparison let it through
    doc = json.loads(run("perfect", "enumerate", "--n", "4").stdout)
    doc["format"] = True
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(doc))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 4, "rows": [[int(i == j) for j in range(4)] for i in range(4)]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {cat}: bad catalog document: unsupported catalog format\n"


def test_catalog_record_that_is_not_perfect_is_refused(tmp_path):
    # the identity with its true minimum, minimal vectors and hash: only
    # the perfection test at the catalog's gate can refuse it
    doc = json.loads(run("perfect", "enumerate", "--n", "2").stdout)
    entry = doc["classes"][0]
    entry["form"] = {"n": 2, "rows": [["1", "0"], ["0", "1"]]}
    entry["mu"] = "1"
    entry["min_vectors"] = [[0, 1], [1, 0]]
    entry["hash"] = Catalog._record_hash({k: entry[k] for k in ("form", "mu", "min_vectors")})
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(doc))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": [["4", "1"], ["1", "3"]]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {cat}: bad catalog document: form is not perfect\n"


def test_complex_cell_without_sign_names_the_field(tmp_path):
    doc = to_regular(SimplicialComplex([(0, 1)])).to_json_dict()
    del doc["cells"][-1]["faces"][0]["sign"]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    r = run("homology", "--complex", str(path))
    assert r.returncode == 2
    assert r.stderr == f"error: {path}: bad complex document: missing field 'sign'\n"


@pytest.mark.parametrize(
    "rows", [5, [1, 2]], ids=["rows-not-a-list", "rows-of-numbers"]
)
def test_form_rows_must_be_a_list_of_lists(tmp_path, rows):
    cat = tmp_path / "cat2.json"
    assert run("perfect", "enumerate", "--n", "2", "--out", str(cat)).returncode == 0
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": rows}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 2
    assert r.stderr == f"error: {form}: bad form document: rows must be a list of lists\n"


@pytest.mark.parametrize(
    "command, field, message",
    [
        ("shell", "maximal_faces", "maximal_faces must be a list of lists"),
        ("homology", "cells", "cells must be a list of objects"),
    ],
    ids=["maximal-faces", "cells"],
)
def test_complex_list_fields_name_the_field(tmp_path, command, field, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"format": 1, field: 5}))
    r = run(command, "--complex", str(path))
    assert r.returncode == 2
    assert r.stderr == f"error: {path}: bad complex document: {message}\n"


def _edge(dim=1, signs=(-1, 1), dims=(2, 1)):
    """A regular edge a-b, with the given edge dimension, face signs and
    dims header."""
    return {"format": 1, "dims": list(dims), "cells": [
        {"id": "a", "dim": 0, "faces": []},
        {"id": "b", "dim": 0, "faces": []},
        {"id": "e", "dim": dim, "faces": [
            {"id": "a", "sign": signs[0]}, {"id": "b", "sign": signs[1]},
        ]},
    ]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"format": 1, "cells": [{"id": "a", "dim": 0, "faces": 5}]},
         "faces must be a list of objects"),
        ({"format": 1, "cells": [{"id": "a", "dim": 0, "faces": [5]}]},
         "faces must be a list of objects"),
        ({"format": 1, "maximal_faces": [[1, "a"]]},
         "maximal_faces must be a list of lists of integers"),
        ({"format": 1, "dims": 5, "cells": [{"id": "a", "dim": 0, "faces": []}]},
         "dims must be a list of integers"),
        ({"format": 1, "cells": [{"id": "a", "dim": "x", "faces": []}]},
         "dim must be an integer"),
        ({"format": 1, "cells": [{"id": "a", "dim": float("inf"), "faces": []}]},
         "dim must be an integer"),
        ({"format": 1, "cells": [
            {"id": "a", "dim": 0, "faces": []},
            {"id": "e", "dim": 1, "faces": [{"id": "a", "sign": "q"}]},
        ]}, "sign must be an integer"),
        ({"format": 1, "maximal_faces": [[0, 1.5], [1.7, 2]]},
         "maximal_faces must be a list of lists of integers"),
        (_edge(dim=1.2), "dim must be an integer"),
        (_edge(signs=(-1.5, 1.99)), "sign must be an integer"),
        (_edge(dims=[2.0, 1.4]), "dims must be a list of integers"),
        ({"format": 1, "cells": [
            {"id": "a", "dim": 0, "faces": []},
            {"id": "e", "dim": 1, "faces": [{"id": "z", "sign": 1}]},
        ]}, "cell 'e' references unknown face 'z'"),
        (_edge(signs=(-1, 2)), "face sign of 'b' in 'e' must be -1 or +1"),
        ({"format": 1, "cells": [
            {"id": "a", "dim": 0, "faces": []},
            {"id": "e", "dim": 1, "faces": [
                {"id": "a", "sign": -1}, {"id": "a", "sign": 1},
            ]},
        ]}, "face 'a' repeated in cell 'e'"),
        ({"format": 1, "cells": [
            {"id": "a", "dim": 0, "faces": []},
            {"id": "b", "dim": 0, "faces": [{"id": "a", "sign": 1}]},
        ]}, "vertex 'b' must not list faces"),
        ({"format": 1, "cells": [
            {"id": "a", "dim": 0, "faces": []},
            {"id": "e", "dim": 1, "faces": []},
        ]}, "cell 'e' of dimension 1 has no faces"),
        (_edge(dim=-1), "cell 'e' has negative dimension"),
        (_edge(dim=1_000_000_000),
         "face 'a' of 'e' has dimension 0, expected 999999999"),
        ({"format": 1, "cells": [
            {"id": "a", "dim": 0, "faces": []},
            {"id": "x", "dim": 1_000_000_000, "faces": []},
        ]}, "cell 'x' of dimension 1000000000 has no faces"),
        ({"format": 1, "cells": [
            {"id": "b", "dim": 0, "faces": [{"id": "a", "sign": 1}]},
            {"id": "a", "dim": 0, "faces": []},
            {"id": "e", "dim": 1, "faces": [{"id": "a", "sign": "q"}]},
        ]}, "sign must be an integer"),
        (_edge(signs=(-1, True)), "sign must be an integer"),
        ({"format": 1, "cells": [{"id": "a", "dim": False, "faces": []}]},
         "dim must be an integer"),
        (_edge(dims=[2, True]), "dims must be a list of integers"),
        ({"format": 1, "maximal_faces": [[0, True]]},
         "maximal_faces must be a list of lists of integers"),
        ({"format": 1, "cells": []}, "complex has no cells"),
        ({"format": True, "cells": []}, "unsupported complex format"),
        ({"format": True, "maximal_faces": [[0, 1]]}, "unsupported complex format"),
    ],
    ids=[
        "faces-not-a-list", "faces-of-numbers", "vertex-not-an-integer",
        "dims-not-a-list", "dim-not-an-integer", "dim-infinite",
        "sign-not-an-integer", "vertex-not-integral", "dim-not-integral",
        "sign-not-integral", "dims-not-integral", "unknown-face", "sign-two",
        "repeated-face", "vertex-with-faces", "edge-without-faces",
        "dim-negative", "dim-huge", "dim-huge-without-faces",
        "fields-parsed-before-structure", "sign-true", "dim-false", "dims-true",
        "vertex-true", "no-cells", "format-true-cells", "format-true-maximal-faces",
    ],
)
def test_complex_nested_fields_name_the_field(tmp_path, doc, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    r = run("homology", "--complex", str(path))
    assert r.returncode == 2
    assert r.stderr == f"error: {path}: bad complex document: {message}\n"


def test_complex_loaders_still_convert_entries(tmp_path):
    # string and float vertex labels, string signs, and numeric-string
    # and float dimensions loaded before the field checks, and still do
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"format": 1, "maximal_faces": [["0", 1.0]]}))
    assert json.loads(run("homology", "--complex", str(path)).stdout)["betti"] == [1, 0]
    doc = to_regular(SimplicialComplex([(0, 1)])).to_json_dict()
    for face in doc["cells"][-1]["faces"]:
        face["sign"] = str(face["sign"])
    doc["cells"][0]["dim"] = "0"
    doc["cells"][-1]["dim"] = 1.0
    doc["dims"] = [2.0, 1.0]
    path.write_text(json.dumps(doc))
    assert json.loads(run("homology", "--complex", str(path)).stdout)["betti"] == [1, 0]


# -- pipelines ------------------------------------------------------------------


def test_enumerate_then_reduce(tmp_path):
    cat = tmp_path / "cat2.json"
    r = run("perfect", "enumerate", "--n", "2", "--out", str(cat))
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["classes"] == 1
    assert summary["complete"] is True

    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "rows": [["4", "1"], ["1", "3"]]}))
    r = run("reduce", "--form", str(form), "--catalog", str(cat))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["class_index"] == 0
    assert len(doc["support"]) == len(doc["coefficients"]) >= 3
    # witness is unimodular 2x2
    a, b = doc["witness"]
    assert a[0] * b[1] - a[1] * b[0] in (1, -1)


def test_enumerate_n6_finds_the_seven_classes_of_barnes(tmp_path):
    cat = tmp_path / "cat6.json"
    r = run("-v", "perfect", "enumerate", "--n", "6", "--out", str(cat))
    assert r.returncode == 0
    # one contiguity step per facet orbit: 32 orbits of 45190 facets
    counters = json.loads(r.stderr)
    assert counters["aut"] == {
        "searches": 133, "candidates_cut": 1624, "generators": 37, "orbits": 32
    }
    assert counters["neighbor"]["steps"] == 32
    assert counters["dd"]["facets"] == 45190
    summary = json.loads(r.stdout)
    assert summary["classes"] == 7  # Barnes 1957
    assert summary["complete"] is True
    doc = json.loads(cat.read_text())
    assert doc["complete"] is True
    classes = doc["classes"]
    assert [len(c["min_vectors"]) for c in classes] == [21, 30, 36, 21, 22, 27, 21]
    assert [len(c["neighbors"]) for c in classes] == [21, 6336, 38124, 21, 46, 621, 21]
    assert hashlib.sha256(cat.read_bytes()).hexdigest() == (
        "b2fd5be0a30e56881598e3041a99be941eb3cbe2be1ae7b501d3d6edd3f6d2cf"
    )
    # |Aut| (Conway–Sloane 1988: A6 2*7!, D6 2^6*6!, E6 and E6* 103680)
    # and the facet orbits of each class, recomputed on the loaded catalog
    records = Catalog.from_json_dict(doc).records
    assert [r.automorphisms().order for r in records] == [
        10080, 46080, 103680, 96, 288, 103680, 672
    ]
    # the same generators, in the same order, as the unfiltered chain
    for r in records:
        assert r.automorphisms() == reference_automorphism_group(r.integral_form)
    orbits = [sorted(collections.Counter(r.facet_orbits()).values()) for r in records]
    assert orbits == [
        [21],
        [96, 96, 192, 960, 960, 1152, 1440, 1440],
        [45, 135, 432, 1440, 2592, 3240, 3240, 3240, 4320, 6480, 12960],
        [3, 6, 12],
        [1, 6, 9, 12, 18],
        [45, 216, 360],
        [21],
    ]


def test_sl2_emit_feeds_homology(tmp_path):
    surf = tmp_path / "surf.json"
    r = run("sl2", "--level", "5", "--emit", str(surf))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    cx = RegularComplex.from_json_dict(json.loads(surf.read_text()))
    assert cx.f_vector() == (12, 30, 20)
    # the closed surface has betti (1, 2g, 1)
    r = run("homology", "--complex", str(surf))
    betti = json.loads(r.stdout)["betti"]
    assert betti == [1, 2 * report["genus"], 1] == [1, 0, 1]

    # the open quotient deformation-retracts to the dual graph, whose
    # first betti number is the reported h1 rank
    dual = tmp_path / "dual.json"
    r = run("sl2", "--level", "5", "--emit", str(dual), "--dual")
    assert r.returncode == 0
    graph = RegularComplex.from_json_dict(json.loads(dual.read_text()))
    assert graph.f_vector() == (20, 30)
    r = run("homology", "--complex", str(dual))
    assert json.loads(r.stdout)["betti"] == [1, report["h1_rank"]] == [1, 11]


def test_building_emit_round_trips(tmp_path):
    out = tmp_path / "b5.json"
    r = run("building", "--n", "5", "--emit", str(out))
    assert r.returncode == 0
    cx = SimplicialComplex.from_json_dict(json.loads(out.read_text()))
    assert cx.f_vector() == (4, 6, 4, 1)


def test_resume_matches_fresh(tmp_path):
    part = tmp_path / "part.json"
    r = run("perfect", "enumerate", "--n", "4", "--limit", "1", "--out", str(part))
    assert r.returncode == 0
    assert json.loads(r.stdout)["complete"] is False
    r = run("perfect", "enumerate", "--resume", str(part))
    assert r.returncode == 0
    fresh = tmp_path / "fresh.json"
    assert run("perfect", "enumerate", "--n", "4", "--out", str(fresh)).returncode == 0
    assert part.read_bytes() == fresh.read_bytes()


def test_catalog_dir_env(tmp_path):
    r = run(
        "perfect", "enumerate", "--n", "2", "--out", "rel.json",
        env={"VOROCELL_CATALOG_DIR": str(tmp_path)},
    )
    assert r.returncode == 0
    assert (tmp_path / "rel.json").exists()


def test_catalog_dir_env_applies_to_resume(tmp_path):
    env = {"VOROCELL_CATALOG_DIR": str(tmp_path)}
    r = run("perfect", "enumerate", "--n", "3", "--limit", "1", "--out", "part.json", env=env)
    assert r.returncode == 0
    r = run("perfect", "enumerate", "--resume", "part.json", env=env)
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["catalog"] == str(tmp_path / "part.json")
    assert summary["complete"] is True


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("building", "--n", "6"),
        ("sl2", "--level", "9"),
        ("sp4", "verify"),
    ],
)
def test_stdout_byte_identical(args):
    first = run(*args)
    second = run(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_emitted_files_byte_identical(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        cat = tmp_path / f"cat3_{tag}.json"
        surf = tmp_path / f"surf_{tag}.json"
        assert run("perfect", "enumerate", "--n", "3", "--out", str(cat)).returncode == 0
        assert run("sl2", "--level", "6", "--emit", str(surf)).returncode == 0
        pairs.append((cat.read_bytes(), surf.read_bytes()))
    assert pairs[0] == pairs[1]


def test_verbose_leaves_stdout_alone():
    plain = run("building", "--n", "3")
    flagged = run("-v", "building", "--n", "3")
    assert flagged.returncode == 0
    assert flagged.stdout == plain.stdout


def test_verbose_reports_dd_counters():
    plain = run("perfect", "enumerate", "--n", "4")
    flagged = run("-v", "perfect", "enumerate", "--n", "4")
    assert flagged.returncode == 0
    assert flagged.stdout == plain.stdout
    assert plain.stderr == ""
    (line,) = flagged.stderr.splitlines()
    counters = json.loads(line)
    dd = counters["dd"]
    assert dd["cones"] == 2
    assert dd["facets"] == 74  # 10 for A4, 64 for D4
    assert dd["peak_generators"] == 64
    assert dd["pairs"] >= dd["pairs_cut_popcount"] + dd["pairs_cut_adjacency"]
    assert counters["enumerate"] == {"classes": 2}
    # the stabilizer chains of A4 (|Aut| 240) and D4 (1152) find 8
    # generators in 8 searches, after the inner-product test cut 110 of
    # the 118 candidates; under them the 10 facets of A4 form one orbit
    # and the 64 of D4 two
    assert counters["aut"] == {"searches": 8, "candidates_cut": 110, "generators": 8, "orbits": 3}
    # one contiguity step per facet orbit, each settled by its first
    # LDL^T probe
    assert counters["neighbor"] == {"steps": 3, "ldlt_probes": 3}
    # A4's one step finds D4, which is new; the two steps of D4 match a
    # known class, each placing its 4 columns without backtracking
    assert counters["isometry"] == {"calls": 2, "hits": 2, "nodes": 8}
    # each class form sweeps its candidate pools once, for its stabilizer
    # chain, up to its largest diagonal entry, which no later target
    # exceeds; only the two classes are rank-tested, as each match's
    # witness proves its contiguous form perfect
    assert counters["classify"] == {"pool_sweeps": 2, "perfection_tests": 2}


def test_verbose_reports_homology_counters(tmp_path):
    path = write_complex(tmp_path / "rp2.json", RP2)
    plain = run("homology", "--complex", path, "--integer")
    flagged = run("-v", "homology", "--complex", path, "--integer")
    assert flagged.returncode == 0
    assert flagged.stdout == plain.stdout
    (line,) = flagged.stderr.splitlines()
    # the matching pairs off 14 of the 31 cells and leaves one critical
    # cell in each degree; the 1 x 1 residual of degree 2, the Morse
    # boundary of the critical triangle, is where the invariant factor 2
    # lives
    assert json.loads(line) == {
        "homology": {
            "critical": 3, "matched": 14,
            "residual_cols": 1, "residual_rows": 1,
        }
    }
    assert json.loads(plain.stdout)["torsion"] == [[], [2], []]


def test_verbose_homology_counters_on_subdivided_rp2(tmp_path):
    # labels run to 30, so the numbering of faces() (tuple order) and of
    # to_regular (string-id order, "1.10" before "1.2") differ here; the
    # matching leaves three critical cells in either order
    subdivided = barycentric_subdivision(SimplicialComplex(RP2))
    assert max(subdivided.faces()[0]) == (30,)
    path = write_complex(tmp_path / "rp2-sd.json", subdivided.maximal_faces)
    plain = run("homology", "--complex", path, "--integer")
    flagged = run("-v", "homology", "--complex", path, "--integer")
    assert flagged.returncode == 0
    assert flagged.stdout == plain.stdout
    (line,) = flagged.stderr.splitlines()
    assert json.loads(line) == {
        "homology": {
            "critical": 3, "matched": 89,
            "residual_cols": 1, "residual_rows": 1,
        }
    }
    assert json.loads(plain.stdout)["torsion"] == [[], [2], []]


def test_verbose_homology_counters_on_the_level_31_surface(tmp_path):
    # genus 1001: the matching leaves a minimal Morse complex, 1 + 2002
    # + 1 critical cells with a zero boundary, so the Smith form gets
    # nothing
    path = tmp_path / "surface31.json"
    assert run("sl2", "--level", "31", "--emit", str(path)).returncode == 0
    flagged = run("-v", "homology", "--complex", str(path), "--integer")
    assert flagged.returncode == 0
    (line,) = flagged.stderr.splitlines()
    assert json.loads(line) == {
        "homology": {
            "critical": 2004, "matched": 5438,
            "residual_cols": 0, "residual_rows": 0,
        }
    }


def test_verbose_homology_counters_on_a_non_square_morse_boundary(tmp_path):
    # critical (1, 3, 1): degree 2 has fewer critical cells, so its Morse
    # boundary comes from the coboundary, and its support is 2 edges by 1
    # triangle; the counters count it untransposed
    triangles = [
        (0, 1, 6), (0, 2, 3), (0, 2, 6), (0, 4, 6), (0, 4, 7), (1, 2, 4),
        (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 6), (4, 6, 7),
    ]
    path = write_complex(tmp_path / "cx.json", triangles)
    plain = run("homology", "--complex", path, "--integer")
    flagged = run("-v", "homology", "--complex", path, "--integer")
    assert flagged.returncode == 0
    assert flagged.stdout == plain.stdout
    (line,) = flagged.stderr.splitlines()
    assert json.loads(line) == {
        "homology": {
            "critical": 5, "matched": 18,
            "residual_rows": 2, "residual_cols": 1,
        }
    }
    report = json.loads(plain.stdout)
    assert (report["betti"], report["torsion"]) == ([1, 2, 0], [[], [], []])


@pytest.mark.parametrize(
    "maximal_faces, counters",
    [
        (barycentric_subdivision(
            SimplicialComplex(itertools.combinations(range(5), 4))
        ).maximal_faces,
         {"critical": 2, "matched": 269,
          "residual_rows": 0, "residual_cols": 0}),
        (barycentric_subdivision(
            barycentric_subdivision(SimplicialComplex(OCTAHEDRON))
        ).maximal_faces,
         {"critical": 2, "matched": 432,
          "residual_rows": 0, "residual_cols": 0}),
    ],
    ids=["subdivided-boundary-4-simplex", "twice-subdivided-octahedron"],
)
def test_verbose_homology_counters_on_spheres(tmp_path, maximal_faces, counters):
    # the matching leaves a critical vertex and a critical top cell, whose
    # Morse boundary is zero, so the Smith form gets nothing
    path = write_complex(tmp_path / "sphere.json", maximal_faces)
    flagged = run("-v", "homology", "--complex", path, "--integer")
    assert flagged.returncode == 0
    (line,) = flagged.stderr.splitlines()
    assert json.loads(line) == {"homology": counters}


def test_verbose_reports_reduction_counters(tmp_path):
    catalog = tmp_path / "cat4.json"
    assert run("perfect", "enumerate", "--n", "4", "--out", str(catalog)).returncode == 0
    form = tmp_path / "form.json"
    # seed-1 benchmark form 19: four crossings, then one LP at eps = 1/128,
    # the first power of two that keeps the pushed target in the face's cone
    form.write_text(json.dumps({"n": 4, "rows": [
        ["155/72", "-83/72", "-43/36", "1/9"],
        ["-83/72", "811/360", "233/180", "-19/90"],
        ["-43/36", "233/180", "107/45", "-109/90"],
        ["1/9", "-19/90", "-109/90", "199/90"],
    ]}))
    plain = run("reduce", "--form", str(form), "--catalog", str(catalog))
    flagged = run("-v", "reduce", "--form", str(form), "--catalog", str(catalog))
    assert flagged.returncode == 0
    assert flagged.stdout == plain.stdout
    assert json.loads(plain.stdout)["steps"] == 4
    (line,) = flagged.stderr.splitlines()
    counters = json.loads(line)
    assert counters["reduction"] == {"steps": 4, "lps": 1, "eps_exponent": 7}
    # each crossing builds its neighbor once and matches it to a class
    assert counters["neighbor"] == {"steps": 4, "ldlt_probes": 4}


@pytest.mark.parametrize("faces, nodes", [
    (OCTAHEDRON, 8),  # shelled in facet order, no backtracking
    ([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)], 35),  # Moebius band
])
def test_verbose_reports_shelling_counters(tmp_path, faces, nodes):
    path = write_complex(tmp_path / "complex.json", faces)
    plain = run("shell", "--complex", path)
    flagged = run("-v", "shell", "--complex", path)
    assert flagged.returncode == plain.returncode
    assert flagged.stdout == plain.stdout
    (line,) = flagged.stderr.splitlines()
    assert json.loads(line) == {"shelling": {"nodes": nodes}}
    assert json.loads(plain.stdout)["nodes_used"] == nodes


def test_cached_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    """Several commands in one process share the module's parser; each
    call's stdout, stderr and exit code equal those of the same call on
    a freshly built parser."""
    from vorocell import cli

    catalog = tmp_path / "cat3.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 3, "rows": [[2, 1, 0], [1, 2, 1], [0, 1, 2]]}))
    surface = write_complex(tmp_path / "octahedron.json", OCTAHEDRON)
    assert cli.main(["perfect", "enumerate", "--n", "3", "--out", str(catalog)]) == 0
    calls = [
        ["reduce", "--form", str(form), "--catalog", str(catalog)],
        ["reduce", "--form", str(tmp_path / "missing.json"), "--catalog", str(catalog)],
        ["perfect", "enumerate", "--n", "three"],
        ["perfect", "enumerate", "--n", "3"],
        ["homology", "--complex", surface],
    ]

    def outcome(argv):
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [outcome(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [outcome(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 2, 0, 0]


# the modules that load with vorocell.cli: the catalog layer its loaders use
CATALOG_LAYER = ["cli", "linalg", "minvec", "obs", "perfect"]


@pytest.mark.parametrize(
    "argv, hashed, modules",
    [
        (None, False, []),
        (["perfect", "enumerate", "--n", "3"], True, []),
        (["reduce", "--form", "{tmp}/form.json", "--catalog", "{tmp}/cat.json"], True,
         ["reduction"]),
        (["sl2", "--level", "7"], False, ["cells", "sl2"]),
        (["shell", "--complex", "{tmp}/sphere.json"], False, ["cells", "shelling"]),
        (["homology", "--complex", "{tmp}/sphere.json"], False, ["cells"]),
        (["building", "--n", "3"], False, ["cells", "parabolic"]),
        (["sp4", "verify"], False, ["sp4"]),
    ],
    ids=["import", "enumerate", "reduce", "sl2", "shell", "homology", "building", "sp4"],
)
def test_only_the_catalog_loads_hashlib(tmp_path, argv, hashed, modules):
    """A command loads only the modules it runs: start-up imports the
    catalog layer, and each command imports the rest of what it needs.
    hashlib, and with it OpenSSL, is imported only to hash catalog
    records, so a command that reads or writes no catalog never loads
    it."""
    (tmp_path / "form.json").write_text(json.dumps({"n": 2, "rows": [["2", "1"], ["1", "2"]]}))
    (tmp_path / "cat.json").write_text(json.dumps(enumerate_perfect_forms(2).to_json_dict()))
    write_complex(tmp_path / "sphere.json", OCTAHEDRON)
    code = "import contextlib, io, sys\nfrom vorocell import cli\n"
    if argv is not None:
        argv = [a.format(tmp=tmp_path) for a in argv]
        code += (
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
        )
    code += (
        "print('hashlib' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith('vorocell.')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    loaded = sorted(f"vorocell.{m}" for m in CATALOG_LAYER + modules)
    assert r.stdout == f"{hashed}\n{loaded}\n"


# -- the JSON writer -----------------------------------------------------------------

# ids with characters JSON escapes, non-ASCII and astral ones, and any others
CELL_IDS = st.text(
    st.sampled_from('a.0"\\/\n\t\x00\x1f\x7fé€\U0001f600') | st.characters(), max_size=5,
)


@st.composite
def regular_complexes(draw):
    """``to_regular`` of a random simplicial complex with every id
    behind one drawn prefix, which keeps the ids sorted; or a path of
    drawn vertex ids joined by drawn edge ids."""
    if draw(st.booleans()):
        raw = draw(st.lists(
            st.frozensets(st.integers(0, 8), min_size=1, max_size=4), min_size=1, max_size=10,
        ))
        cx = to_regular(SimplicialComplex([tuple(sorted(f)) for f in raw]))
        prefix = draw(CELL_IDS)
        return RegularComplex([[prefix + cid for cid in group] for group in cx.ids], cx.faces)
    vertices = sorted(draw(st.sets(CELL_IDS, min_size=1, max_size=6)))
    edges = sorted(draw(st.sets(CELL_IDS, min_size=len(vertices) - 1, max_size=len(vertices) - 1)))
    ids, faces = [vertices], [[()] * len(vertices)]
    if edges:
        ids.append(edges)
        faces.append([((i + 1, 1), (i, -1)) for i in range(len(edges))])
    return RegularComplex(ids, faces)


@given(regular_complexes())
@settings(max_examples=300, deadline=None)
def test_regular_writer_matches_the_stdlib_indented_encoder(cx):
    from vorocell import cli

    assert cli._dump_regular(cx) == json.dumps(cx.to_json_dict(), indent=2) + "\n"

