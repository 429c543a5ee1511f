"""Pinned stdout of `perfect enumerate` and `reduce`.

The hashes were recorded from the `Fraction` implementation of the
short-vector sweep, the rank-one rays and the facet normals.  Any
change to the exact core that moves a byte of these outputs (a class
order, a facet order, a witness, a coefficient) fails here, so the
integer paths are held to the same bytes.
"""

import contextlib
import hashlib
import io
import json

import pytest

from vorocell import cli

ENUMERATE = {
    3: "085361fc661942a8d00f7cb93070da7d153b8dca77f7c518a24dc98190dcd816",
    4: "33f128ce251ec249ebdd3051f6f3cf2b1b3ef05132d8990eba37c8e054c4478c",
}

# reduced against the n = 4 catalog; "face" is (I + q(1,1,0,0)) moved by a
# unimodular matrix, so it lands on a proper face of a D4 domain
REDUCE = {
    "integral": (
        [["8", "16", "8", "3"], ["16", "39", "14", "-6"],
         ["8", "14", "16", "16"], ["3", "-6", "16", "35"]],
        "4ffcf26a5a3c0740c32c970acf7ad9344a2dfc33b24f33b7ffeddeead84447eb",
    ),
    "rational": (
        [["7/3", "1/2", "-2/5", "1"], ["1/2", "13/4", "3/7", "-1/2"],
         ["-2/5", "3/7", "5", "2/3"], ["1", "-1/2", "2/3", "9/2"]],
        "e8575fae44c853dffd8f9ba295981a87abed17ba6b864b2c21f8a475cbd064a9",
    ),
    "face": (
        [["3", "6", "2", "0"], ["6", "15", "5", "-3"],
         ["2", "5", "4", "2"], ["0", "-3", "2", "7"]],
        "e6bd986c016ac805c2aa1fc0569185a759a62b389d06713380b579f7f0af9fb7",
    ),
}


def stdout_of(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def catalog4(tmp_path_factory):
    text = stdout_of("perfect", "enumerate", "--n", 4)
    path = tmp_path_factory.mktemp("catalog") / "cat4.json"
    path.write_text(text)
    return text, path


def test_enumerate_n3_bytes():
    assert sha256(stdout_of("perfect", "enumerate", "--n", 3)) == ENUMERATE[3]


def test_enumerate_n4_bytes(catalog4):
    assert sha256(catalog4[0]) == ENUMERATE[4]


@pytest.mark.parametrize("name", sorted(REDUCE))
def test_reduce_bytes(name, catalog4, tmp_path):
    rows, digest = REDUCE[name]
    form = tmp_path / f"{name}.json"
    form.write_text(json.dumps({"n": 4, "rows": rows}))
    assert sha256(stdout_of("reduce", "--form", form, "--catalog", catalog4[1])) == digest
