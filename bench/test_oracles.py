"""Tests of the benchmark's own code: every oracle accepts a real output
of the program and rejects a corrupted one; inputs are reproducible;
the tracer's books balance.

Run from the root of a checkout:

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import copy
import io
import json
import tempfile
import unittest
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import inputs
import oracles
from layertrace import Tracer
import run
from run import PACKAGE, import_program

CLI = import_program()


def vorocell(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = CLI.main([str(a) for a in argv])
    assert code == 0, (argv, code)
    return json.loads(out.getvalue())


class OracleCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def rejects(self, fn, *args) -> None:
        with self.assertRaises(oracles.OracleError):
            fn(*args)


class EnumerateOracle(OracleCase):
    def catalog(self, n: int, *extra) -> tuple[dict, dict, str]:
        path = self.dir / f"cat{n}.json"
        summary = vorocell("perfect", "enumerate", "--n", n, "--out", path, *extra)
        return summary, json.loads(path.read_text()), str(path)

    def test_accepts_real_catalogs(self) -> None:
        for n in (2, 3, 4):
            summary, doc, path = self.catalog(n)
            oracles.check_catalog(doc, n)
            oracles.check_enumerate_summary(summary, doc, path)

    def test_accepts_limited_catalog(self) -> None:
        summary, doc, path = self.catalog(4, "--limit", 1)
        oracles.check_catalog(doc, 4, 1)
        self.rejects(oracles.check_catalog, doc, 4)

    def test_rejects_corrupted_catalogs(self) -> None:
        summary, doc, path = self.catalog(4)

        def corrupt(edit):
            bad = copy.deepcopy(doc)
            edit(bad)
            return bad

        cases = [
            lambda d: d["classes"].pop(),                                # class count
            lambda d: d.update(complete=False),                          # completeness
            lambda d: d["classes"][0]["min_vectors"].pop(),             # pair count
            lambda d: d["classes"][1]["min_vectors"].__setitem__(0, [1, 1, 1, 1]),
            lambda d: d["classes"][0].update(mu="3"),                    # minimum
            lambda d: d["classes"][1]["neighbors"].__setitem__(0, 2),   # index range
            lambda d: d["classes"][0].update(neighbors=None),
            lambda d: d["classes"].__setitem__(1, d["classes"][0]),     # duplicate class
            lambda d: d["classes"][0]["form"]["rows"][0].__setitem__(1, "0"),  # symmetry
        ]
        for edit in cases:
            self.rejects(oracles.check_catalog, corrupt(edit), 4)
        self.rejects(oracles.check_enumerate_summary, dict(summary, classes=3), doc, path)

    def test_rank_separates_perfect_from_imperfect(self) -> None:
        def system(vectors):
            return [[v[i] * v[j] * (1 if i == j else 2) for i in range(3) for j in range(i, 3)]
                    for v in vectors]

        # the identity's minimal vectors leave its value system short of rank 6
        self.assertEqual(oracles.rank(system([(1, 0, 0), (0, 1, 0), (0, 0, 1)])), 3)
        a3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
        self.assertEqual(oracles.rank(system(a3)), 6)


class ReduceOracle(OracleCase):
    def setUp(self) -> None:
        super().setUp()
        cat = self.dir / "cat2.json"
        vorocell("perfect", "enumerate", "--n", 2, "--out", cat)
        self.catalog = json.loads(cat.read_text())
        self.rows = [[Fraction(4), Fraction(1)], [Fraction(1), Fraction(3)]]
        form = self.dir / "form.json"
        form.write_text(json.dumps(inputs.form_document(self.rows)))
        self.result = vorocell("reduce", "--form", form, "--catalog", cat)

    def test_accepts_real_reduction(self) -> None:
        oracles.check_reduction(self.result, self.rows, self.catalog)

    def test_rejects_corrupted_reductions(self) -> None:
        def corrupt(edit):
            bad = copy.deepcopy(self.result)
            edit(bad)
            return bad

        cases = [
            lambda r: r["coefficients"].__setitem__(0, str(Fraction(r["coefficients"][0]) + 1)),
            lambda r: r["coefficients"].__setitem__(0, "-" + r["coefficients"][0]),
            lambda r: r["witness"].__setitem__(0, [2 * x for x in r["witness"][0]]),
            lambda r: r["witness"][0].__setitem__(0, 0.5),
            lambda r: r["support"].__setitem__(0, 99),
            lambda r: r.update(class_index=5),
            lambda r: r["support"].pop(),
        ]
        for edit in cases:
            self.rejects(oracles.check_reduction, corrupt(edit), self.rows, self.catalog)

    def test_cold_and_warm_must_agree(self) -> None:
        r = self.result
        fields = dict(class_index=r["class_index"], witness=tuple(map(tuple, r["witness"])),
                      support=tuple(r["support"]), steps=r["steps"],
                      coefficients=tuple(Fraction(c) for c in r["coefficients"]))
        oracles.same_reduction(r, SimpleNamespace(**fields))
        for key, value in (("steps", r["steps"] + 1), ("class_index", 7)):
            self.rejects(oracles.same_reduction, r, SimpleNamespace(**dict(fields, **{key: value})))


class ComplexesOracle(OracleCase):
    def test_shell_and_homology_of_a_sphere(self) -> None:
        path = self.dir / "octahedron.json"
        facets = inputs.cross_polytope_boundary(3)
        path.write_text(json.dumps({"format": 1, "maximal_faces": facets}))
        shell = vorocell("shell", "--complex", path)
        oracles.check_sphere_shell(shell, 8)
        self.rejects(oracles.check_sphere_shell, dict(shell, status="unknown"), 8)
        self.rejects(oracles.check_sphere_shell, shell, 9)
        hom = vorocell("homology", "--complex", path, "--integer")
        oracles.check_homology(hom, oracles.sphere_betti(2))
        self.rejects(oracles.check_homology, dict(hom, betti=[1, 1, 1]), oracles.sphere_betti(2))
        self.rejects(oracles.check_homology, dict(hom, torsion=[[], [2], []]),
                     oracles.sphere_betti(2))

    def test_sl2_counts_and_surface(self) -> None:
        for level in (5, 6, 7):
            path = self.dir / f"surf{level}.json"
            report = vorocell("sl2", "--level", level, "--emit", path)
            genus = oracles.check_sl2(report, level)
            doc = json.loads(path.read_text())
            oracles.check_surface_doc(doc, level)
            hom = vorocell("homology", "--complex", path, "--integer")
            oracles.check_homology(hom, [1, 2 * genus, 1])
            for key, delta in (("triangles", 1), ("edges", 3), ("cusps", 1), ("genus", 1),
                               ("h1_rank", 2)):
                self.rejects(oracles.check_sl2, dict(report, **{key: report[key] + delta}), level)
            self.rejects(oracles.check_sl2, dict(report, vcd_vanishing=False), level)
            self.rejects(oracles.check_surface_doc, dict(doc, dims=doc["dims"][::-1]), level)

    def test_group_order_formula_matches_brute_force(self) -> None:
        for level in range(3, 9):
            sl2 = sum(1 for a, b, c, d in product(range(level), repeat=4)
                      if (a * d - b * c) % level == 1)
            self.assertEqual(oracles.psl2_order(level), sl2 // 2)


class Inputs(unittest.TestCase):
    def test_forms_are_reproducible_and_positive_definite(self) -> None:
        a, b = inputs.reduce_forms(3, 12), inputs.reduce_forms(3, 12)
        self.assertEqual(a, b)
        self.assertNotEqual(a, inputs.reduce_forms(4, 12))
        for form in a:
            self.assertTrue(oracles.positive_definite(form["rows"]))

    def test_spheres_are_closed_pseudomanifolds(self) -> None:
        for build, facets, size in ((inputs.sphere3, 9216, 4), (inputs.sphere5, 5040, 6)):
            cx = build(1)
            self.assertEqual(cx, build(1))
            self.assertEqual(len(cx), facets)
            self.assertEqual(len({tuple(f) for f in cx}), facets)
            ridges: dict = {}
            for f in cx:
                self.assertEqual(len(f), size)
                for v in f:
                    r = tuple(x for x in f if x != v)
                    ridges[r] = ridges.get(r, 0) + 1
            self.assertEqual(set(ridges.values()), {2})


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, dict(run.END_TO_END))
        empty = {"layers": {}, "counts": {"perfect.Catalog.edge.cache_hits": 0},
                 "operations": {}}
        emitted = {k: unit for k, (_v, unit) in run.per_layer_metrics(empty, 0.0, 0.0).items()}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, emitted)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class TracerBooks(OracleCase):
    def test_self_times_and_remainder_add_up(self) -> None:
        tracer = Tracer()
        tracer.install(PACKAGE)
        try:
            with tracer.operation("sl2"):
                with redirect_stdout(io.StringIO()):
                    CLI.main(["sl2", "--level", "7"])
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        op = summary["operations"]["sl2"]
        self.assertAlmostEqual(op["self_sum_s"] + op["unattributed_s"], op["wall_s"], places=9)
        self.assertGreaterEqual(op["unattributed_s"], 0.0)
        layers = summary["layers"]
        self.assertEqual(layers["cli.main"]["calls"], 1)
        self.assertEqual(layers["sl2.QuotientTessellation.init"]["calls"], 2)
        # uninstalling restores the original functions everywhere
        self.assertFalse(hasattr(CLI.main, "__wrapped__"))
        self.assertFalse(hasattr(CLI.homology, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
