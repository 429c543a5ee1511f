"""Fuzzing of the JSON loaders through the command line.

Valid form, catalog and complex documents are mutated at random
positions (a value replaced by another JSON value, a key or list item
dropped, a list item repeated) and handed to ``vorocell.cli.main`` in
process.  Whatever the document, the exit code must be 0, 1 or 2 and
stderr must carry no traceback; an exception escaping ``main`` is what
would print one.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from cell_helpers import to_regular
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vorocell.cells import SimplicialComplex
from vorocell.cli import main
from vorocell.perfect import enumerate_perfect_forms

OCTAHEDRON = [
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]

# the hexagonal form moved off its domain, so reducing it walks the catalog
FAR_FORM = {"n": 2, "rows": [["2", "15"], ["15", "114"]]}

REPLACEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2.5, -0.5, math.inf, -math.inf, math.nan, 1e300]),
    st.sampled_from(["", "x", "1/0", "1/2", "-1", "nan", "Infinity", "3", "1e400"]),
    st.sampled_from([[], {}, [[]], [0], {"id": "0"}]),
)


def _paths(doc, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(REPLACEMENTS))
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    catalog = enumerate_perfect_forms(2).to_json_dict()
    partial = copy.deepcopy(catalog)  # class 0 still to expand
    partial["classes"][0]["neighbors"] = None
    partial["complete"] = False
    for name, doc in [("form.json", FAR_FORM), ("catalog.json", catalog)]:
        (base / name).write_text(json.dumps(doc))
    return {
        "dir": base,
        "form": FAR_FORM,
        "catalog": catalog,
        "partial": partial,
        "simplicial": SimplicialComplex(OCTAHEDRON).to_json_dict(),
        "regular": to_regular(SimplicialComplex([(0, 1, 2)])).to_json_dict(),
    }


FUZZ = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def check(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@FUZZ
@given(data=st.data())
def test_mutated_form(documents, data):
    path = documents["dir"] / "mutated_form.json"
    path.write_text(json.dumps(data.draw(mutated(documents["form"]))))
    check(["reduce", "--form", path, "--catalog", documents["dir"] / "catalog.json"])


@FUZZ
@given(data=st.data())
def test_mutated_catalog(documents, data):
    path = documents["dir"] / "mutated_catalog.json"
    path.write_text(json.dumps(data.draw(mutated(documents["catalog"]))))
    check(["reduce", "--form", documents["dir"] / "form.json", "--catalog", path])


@FUZZ
@given(data=st.data())
def test_mutated_resumed_catalog(documents, data):
    path = documents["dir"] / "mutated_partial.json"
    path.write_text(json.dumps(data.draw(mutated(documents["partial"]))))
    check(["perfect", "enumerate", "--resume", path])


@FUZZ
@given(data=st.data(), kind=st.sampled_from(["simplicial", "regular"]))
def test_mutated_complex(documents, data, kind):
    path = documents["dir"] / "mutated_complex.json"
    path.write_text(json.dumps(data.draw(mutated(documents[kind]))))
    check(["homology", "--complex", path, "--integer"])
    if kind == "simplicial":
        check(["shell", "--complex", path, "--budget", 1000])
