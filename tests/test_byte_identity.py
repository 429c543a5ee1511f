"""Pinned stdout of every subcommand, and every file one emits.

The `perfect enumerate` and `reduce` hashes were recorded from the
`Fraction` implementation of the short-vector sweep, the rank-one rays
and the facet normals.  Any change to the exact core that moves a byte
of these outputs (a class order, a facet order, a witness, a
coefficient) fails here, so the integer paths are held to the same
bytes.  The `sl2` and `homology` hashes were recorded when a simplicial
complex still went through its string-id regular complex and the
default `homology` took a rank-only exit over the rationals; the direct
integer boundary matrices and the single path over the integers keep
them, and so do the `cells(d)` columns that replaced those matrices.  The three `bench1_*` reduce hashes were recorded while the
certificate LP and the reduction walk still ran in `Fraction`; the
fraction-free tableau and the integer walk keep them.  The level-31
`sl2` hashes were recorded while the quotient still multiplied 2x2
matrices for every coset; indexing PSL2(Z/N) and its permutations
keeps them.  The level-31 dual graph and the `homology` of both level-31
complexes were recorded while a regular complex was still a dict of
string-named cells; the integer cells in sorted-id order keep them.
The `shell`, `sp4 verify` and `building` hashes were recorded while
every small document still went through a hand-written JSON writer; the
stdlib encoder keeps them.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from vorocell import cli
from vorocell.cells import SimplicialComplex

ENUMERATE = {
    3: "085361fc661942a8d00f7cb93070da7d153b8dca77f7c518a24dc98190dcd816",
    4: "33f128ce251ec249ebdd3051f6f3cf2b1b3ef05132d8990eba37c8e054c4478c",
}

# (stdout, emitted catalog) of `perfect enumerate --n 5 --out cat5.json`,
# recorded while `SymMatrix` still held `Fraction` entries
ENUMERATE_N5 = (
    "f489d1f2c73933be9d18460f36f98d21e33c1318cf000cad261cb3facd8cbf5b",
    "6abc29ac9cdbfe23628a70e620ad078b4f1ae2e0d54d000dd493e0e2352b27a3",
)

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
    # seed-1 forms 19 and 37 of the benchmark's `reduce_forms`: their
    # certificates take 8 and 9 cone-membership LPs (several halvings of
    # the shift); form 24 walks across 12 facets
    "bench1_19": (
        [["155/72", "-83/72", "-43/36", "1/9"],
         ["-83/72", "811/360", "233/180", "-19/90"],
         ["-43/36", "233/180", "107/45", "-109/90"],
         ["1/9", "-19/90", "-109/90", "199/90"]],
        "00dd2025b184039db75f95a790af3fb892fb7988302af22c15002c9637bc6a2e",
    ),
    "bench1_37": (
        [["601/288", "-143/144", "7/288", "7/288"],
         ["-143/144", "301/72", "-17/144", "-305/144"],
         ["7/288", "-17/144", "601/288", "-263/288"],
         ["7/288", "-305/144", "-263/288", "601/288"]],
        "fc98393d6ce0b0f6584b2ee2214caaefc7118b560225cff134171340fc509059",
    ),
    "bench1_24": (
        [["7010/21", "4562/21", "-3215/21", "-14317/105"],
         ["4562/21", "3025/21", "-716/7", "-3124/35"],
         ["-3215/21", "-716/7", "1534/21", "6602/105"],
         ["-14317/105", "-3124/35", "6602/105", "6077/105"]],
        "1e5d0ea048c011bb8490f52761c0abf184978aea4ed4704dd951ac6ffc599881",
    ),
}


# (stdout, emitted file) of `sl2 --level N --emit PATH [--dual]`; levels 5
# and 19 were recorded while the emitted complex still went through
# `to_json_dict` and the generic writer
SL2 = {
    (5, False): (
        "926d6aa5a67d51b42845c54bca81a6f7e060fe54c8dcec6045b0b52bfa4842fa",
        "9b8a6a9337af27fff5b442e97e6941cda6bde3aeefcaa5b00507201aa0dac705",
    ),
    (5, True): (
        "926d6aa5a67d51b42845c54bca81a6f7e060fe54c8dcec6045b0b52bfa4842fa",
        "a289423d728dd48fc51d9de10b41707abac48dcd45e3d77e45433698de4a2e06",
    ),
    (19, False): (
        "501a2624262642fa2afa479fd2c09bc188234cc13e49b1e755cb3200e10e9625",
        "7ce5985ec7b306eec85ed7131c808f06d3b93dec2dbed2ae48aec9ed5a0a8365",
    ),
    (19, True): (
        "501a2624262642fa2afa479fd2c09bc188234cc13e49b1e755cb3200e10e9625",
        "ea9069574669408ae8b435534098ea4c9abf8451f66a76d66fd494d9e753d888",
    ),
    (7, False): (
        "68b29de49a4ac717efcab3a7c88fed5807cfec0e17479db426f8de35f90864f0",
        "6d8a11810c206cea7c2e16defa721bc1fa94ae2eb54b2d5575d047a7ed3d7a4b",
    ),
    (12, False): (
        "c0986ddeebe9a9916dc2569e14f660bc6f1f46a5fd69ba64279fb8c5d4fdf7da",
        "5000b95f51837cb3faa2bb53042af1dcfcbaedf67faaf60c48db3e2450eb5a95",
    ),
    (31, False): (
        "148d855d9830d7f98c7ebf637aa60d8219ae0b72f239df292adfff886b942f1e",
        "ee3918cc42f8cb27adece3ed1885567ae1675af1289df7b98d0d44ca542a92c1",
    ),
    (7, True): (
        "68b29de49a4ac717efcab3a7c88fed5807cfec0e17479db426f8de35f90864f0",
        "6e4f434a56387946aebbcfeb99d5e8712e19b44bf82832ac12160bf661978268",
    ),
    (31, True): (
        "148d855d9830d7f98c7ebf637aa60d8219ae0b72f239df292adfff886b942f1e",
        "36436cb4bc69fcf46ecd159f02758084c1a1eacbbeb0556906787110d6b59682",
    ),
}

# stdout of `homology --complex PATH` and of `... --integer`
HOMOLOGY = {
    "rp2": (
        "32b48474d734b3769acc8f0ebf04739410cffb069eb84afb0c3b340ddbf19073",
        "3df46692a0ad0b488a90e80038cb970428e20a1f852a7189e8ab25ca09599dd1",
    ),
    "surface7": (
        "d1565aa07faee7c62c9b00da29189bef46ba0bea575c6ddd5e5ee0f569aa18eb",
        "3b8eca41cb9cb594a915710838b44517ed9e54854f419ce3b61e0e1c27f59f55",
    ),
    "surface31": (
        "6648de5e3e903c9768499d949732e3642c466891cb3ea708b4667f5e65fbd528",
        "ca63a9b0e33daf3b40dadb71ea8cfa48e5571c2400dd5611cb4b46c92cf4cc95",
    ),
    "dual31": (
        "1f285e76d01074e12268c12118df8f5211774e502a63af63fcf74e014940d875",
        "031af6f8a7559c3882f9ec614379e800c353f6506db5332364cd025255d177a8",
    ),
}

# the `sl2` call that emits each complex of HOMOLOGY but rp2
EMITTED = {
    "surface7": ["--level", 7],
    "surface31": ["--level", 31],
    "dual31": ["--level", 31, "--dual"],
}

# the six-vertex real projective plane, as a `maximal_faces` document
RP2 = [
    [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
    [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3],
]

# (maximal faces, exit code, stdout) of `shell --complex PATH`: the
# subdivided boundary of the 4-simplex, a 3-sphere of 120 facets, and
# three triangles on one edge, which is not a pseudomanifold
SHELL = {
    "sphere": (
        SimplicialComplex(itertools.combinations(range(5), 4)).subdivide().maximal_faces,
        0,
        "a8f913ce180b39bc4196b87d31091b9c40894cc4f9594e0a5b8f2584339604fa",
    ),
    "fan": (
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
        1,
        "60ea6b7ceaf12bd64dd4e5963dac1b8c55aa0bdf15b52b1e6d25583b20ba1fa3",
    ),
}

SP4_VERIFY = "f99a91406ec4542a08f6ce53209c7ed4d15cbaf35217e3876e25ab0611a835e9"

# stdout of `building --n 4`, and (stdout, emitted file) of
# `building --n 5 --emit PATH`
BUILDING_N4 = "6bb1f083cdf6feb9ef103f921332044417f07afc7a6e763da6709798b098e446"
BUILDING_N5 = (
    "29671441892b74d64ee26ae5074ee7c428927f0fe52f0845fe9581ee79ecfb40",
    "96ef3f869fa62db998af7b61b021cb165faf12e332e676055c7f42ae28161a00",
)


def stdout_of(*argv, code=0) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == code
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


def test_enumerate_n5_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the summary names the catalog path as given
    summary = stdout_of("perfect", "enumerate", "--n", 5, "--out", "cat5.json")
    assert (sha256(summary), sha256((tmp_path / "cat5.json").read_text())) == ENUMERATE_N5


@pytest.mark.parametrize("name", sorted(REDUCE))
def test_reduce_bytes(name, catalog4, tmp_path):
    rows, digest = REDUCE[name]
    form = tmp_path / f"{name}.json"
    form.write_text(json.dumps({"n": 4, "rows": rows}))
    assert sha256(stdout_of("reduce", "--form", form, "--catalog", catalog4[1])) == digest


@pytest.mark.parametrize("level, dual", sorted(SL2))
def test_sl2_bytes(level, dual, tmp_path):
    path = tmp_path / "emitted.json"
    argv = ["sl2", "--level", level, "--emit", path] + (["--dual"] if dual else [])
    assert (sha256(stdout_of(*argv)), sha256(path.read_text())) == SL2[(level, dual)]


@pytest.mark.parametrize("name", sorted(HOMOLOGY))
def test_homology_bytes(name, tmp_path):
    path = tmp_path / f"{name}.json"
    if name == "rp2":
        path.write_text(json.dumps({"format": 1, "maximal_faces": RP2}))
    else:
        stdout_of("sl2", "--emit", path, *EMITTED[name])
    plain = stdout_of("homology", "--complex", path)
    integer = stdout_of("homology", "--complex", path, "--integer")
    assert (sha256(plain), sha256(integer)) == HOMOLOGY[name]


@pytest.mark.parametrize("name", sorted(SHELL))
def test_shell_bytes(name, tmp_path):
    faces, code, digest = SHELL[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"format": 1, "maximal_faces": [list(f) for f in faces]}))
    assert sha256(stdout_of("shell", "--complex", path, code=code)) == digest


def test_sp4_verify_bytes():
    assert sha256(stdout_of("sp4", "verify")) == SP4_VERIFY


def test_building_bytes(tmp_path):
    assert sha256(stdout_of("building", "--n", 4)) == BUILDING_N4
    path = tmp_path / "building5.json"
    stdout = stdout_of("building", "--n", 5, "--emit", path)
    assert (sha256(stdout), sha256(path.read_text())) == BUILDING_N5
