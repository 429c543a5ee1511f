"""Benchmark of the vorocell program, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Workloads are ``enumerate``, ``reduce`` and ``complexes`` (see
README.md in this directory).  Each operation is one ``vorocell``
command-line invocation, run in this process through
``vorocell.cli.main(argv)`` with its output captured; the warm
reductions of the ``reduce`` workload call ``voronoi_reduce`` directly
on one shared catalog.  Every output is checked by ``oracles.py``.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics, timed against the machine-speed probe of
``speed.py``; with ``--trace 1`` the run repeats one
round with the layer tracer installed and reports the
per-layer metrics instead (see ``layertrace.py``).  Run outputs, per-run results and span files
go under ``.bench_run/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import inputs
import oracles
from layertrace import Tracer
from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
PACKAGE = "vorocell"


class ProgramMissing(RuntimeError):
    """The program's sources are not in this checkout."""


def import_program():
    """Import the package afresh from this checkout's ``src``.

    Earlier imports are dropped first, so each call pays the full
    module load, as a fresh ``vorocell`` process does.
    """
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} sources under {SRC}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module(PACKAGE + ".cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"{PACKAGE} imported from {cli.__file__}, not {SRC}")
    return cli


class Harness:
    """Runs operations, times them and tallies failures and checks."""

    def __init__(self, cli, tracer: Tracer | None = None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.check_errors: list[str] = []
        self.op_walls: list[float] = []

    def _timed(self, label: str, fn):
        self.attempted += 1
        span = self.tracer.operation(label) if self.tracer else contextlib.nullcontext()
        with span:
            start = perf_counter()
            try:
                result = fn()
            finally:
                end = perf_counter()
        self.op_walls.append(end - start)
        return result, (start, end)

    def cli_call(self, label: str, *argv) -> tuple[dict | None, tuple[float, float]]:
        """One ``vorocell`` invocation: its parsed stdout (None when it
        failed) and its (start, end) times."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return self.cli.main([str(a) for a in argv])
                except SystemExit as e:
                    return e.code
                except Exception:  # counted as a failed operation, run goes on
                    traceback.print_exc()
                    return None

        code, interval = self._timed(label, call)
        if code != 0:
            self.failed += 1
            print(f"failed: vorocell {' '.join(map(str, argv))} -> {code}\n{err.getvalue()}",
                  file=sys.stderr)
            return None, interval
        try:
            return json.loads(out.getvalue()), interval
        except ValueError as e:
            self.check_errors.append(f"vorocell {argv[0]}: stdout is not JSON: {e}")
            return None, interval

    def library_call(self, label: str, fn):
        """One in-process call; (result or None on failure, (start, end))."""
        def call():
            try:
                return fn()
            except Exception:  # counted as a failed operation, run goes on
                traceback.print_exc()
                return None

        result, interval = self._timed(label, call)
        if result is None:
            self.failed += 1
        return result, interval

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except oracles.OracleError as e:
            self.check_errors.append(f"{fn.__name__}: {e}")
            print(f"check failed: {fn.__name__}: {e}", file=sys.stderr)


# -- workloads ------------------------------------------------------------------
#
# A workload builds its inputs in ``setup`` and runs one round of its
# fixed operations in ``round``, appending one sample per figure.  A
# sample is the list of (start, end) intervals of the operations it
# sums; the run turns it into seconds once the speed probes are in.  The
# two end-to-end figures every workload reports are ``stage1_s`` and
# ``stage2_s``; the other figures are the per-operation detail.


class Enumerate:
    """``perfect enumerate`` for n = 2, 3, 4 (repeated) and n = 5 up to
    two classes.  Isometry search is most of the n = 5 call; at n = 4
    it shares the time with the rank solve, the invariant keys and
    minimal vectors."""

    name = "enumerate"
    setup_repeats = 9
    small = (2, 3, 4)
    small_passes = 6
    n5_limit = 2

    def setup(self, h: Harness, seed: int, work: Path) -> dict:
        return {"work": work}

    def _small_pass(self, h: Harness, work: Path, samples: dict) -> None:
        stage = []
        for n in self.small:
            path = work / f"cat{n}.json"
            summary, interval = h.cli_call(f"enumerate_n{n}", "perfect", "enumerate",
                                           "--n", n, "--out", path)
            stage.append(interval)
            samples[f"enumerate_n{n}_s"].append([interval])
            if summary is not None:
                doc = json.loads(path.read_text())
                h.check(oracles.check_enumerate_summary, summary, doc, str(path))
                h.check(oracles.check_catalog, doc, n)
        samples["stage1_s"].append(stage)

    def round(self, h: Harness, ctx: dict, samples: dict) -> None:
        work = ctx["work"]
        half = self.small_passes // 2
        for _ in range(half):
            self._small_pass(h, work, samples)
        path = work / "cat5.json"
        summary, interval = h.cli_call("enumerate_n5", "perfect", "enumerate", "--n", 5,
                                       "--limit", self.n5_limit, "--out", path)
        samples["enumerate_n5_limit2_s"].append([interval])
        samples["stage2_s"].append([interval])
        if summary is not None:
            doc = json.loads(path.read_text())
            h.check(oracles.check_enumerate_summary, summary, doc, str(path))
            h.check(oracles.check_catalog, doc, 5, self.n5_limit)
        for _ in range(self.small_passes - half):
            self._small_pass(h, work, samples)

    def details(self, medians: dict) -> dict:
        return {k: medians[k] for k in ("enumerate_n2_s", "enumerate_n3_s", "enumerate_n4_s",
                                        "enumerate_n5_limit2_s")}


class Reduce:
    """Seeded 4x4 forms reduced against the n = 4 catalog: cold, one
    ``vorocell reduce`` call per form, and warm, in-process on one
    catalog whose facet and edge caches an untimed pass has filled."""

    name = "reduce"
    setup_repeats = 3
    batch = 48
    warm_passes = 2

    def setup(self, h: Harness, seed: int, work: Path) -> dict:
        catalog_path = work / "cat4.json"
        summary, _ = h.cli_call("setup_enumerate_n4", "perfect", "enumerate", "--n", 4,
                                "--out", catalog_path)
        if summary is None:
            raise RuntimeError("could not build the n = 4 catalog")
        catalog_doc = json.loads(catalog_path.read_text())
        forms = inputs.reduce_forms(seed, self.batch)
        paths = []
        for i, form in enumerate(forms):
            path = work / f"form{i:02d}.json"
            path.write_text(json.dumps(inputs.form_document(form["rows"])))
            paths.append(path)
        perfect = importlib.import_module(PACKAGE + ".perfect")
        linalg = importlib.import_module(PACKAGE + ".linalg")
        reduction = importlib.import_module(PACKAGE + ".reduction")
        catalog = perfect.Catalog.from_json_dict(catalog_doc)
        matrices = [linalg.SymMatrix(form["rows"]) for form in forms]
        for x in matrices:  # fills the facet and edge caches
            reduction.voronoi_reduce(x, catalog)
        return {"catalog_path": catalog_path, "catalog_doc": catalog_doc, "forms": forms,
                "paths": paths, "catalog": catalog, "matrices": matrices,
                "reduction": reduction}

    def round(self, h: Harness, ctx: dict, samples: dict) -> None:
        cold_results = []
        stage = []
        for form, path in zip(ctx["forms"], ctx["paths"]):
            result, interval = h.cli_call("reduce_cold", "reduce", "--form", path,
                                          "--catalog", ctx["catalog_path"])
            stage.append(interval)
            cold_results.append(result)
            if result is not None:
                h.check(oracles.check_reduction, result, form["rows"], ctx["catalog_doc"])
        samples["stage1_s"].append(stage)
        reduction, catalog = ctx["reduction"], ctx["catalog"]
        for p in range(self.warm_passes):
            stage = []
            for x, cold in zip(ctx["matrices"], cold_results):
                warm, interval = h.library_call(
                    "reduce_warm", lambda x=x: reduction.voronoi_reduce(x, catalog))
                stage.append(interval)
                if p == 0 and warm is not None and cold is not None:
                    h.check(oracles.same_reduction, cold, warm)
            samples["stage2_s"].append(stage)

    def details(self, medians: dict) -> dict:
        return {"reduce_cold_per_s": self.batch / medians["stage1_s"],
                "reduce_warm_per_s": self.batch / medians["stage2_s"]}


class Complexes:
    """Shelling and homology of two spheres built here, and the sl2
    ladder with homology of each emitted surface; the ladder is split
    into chunks between the sphere operations."""

    name = "complexes"
    setup_repeats = 7
    spheres = (("sphere3", 3, 9216), ("sphere5", 5, 5040))

    def setup(self, h: Harness, seed: int, work: Path) -> dict:
        files = {}
        for name, _dim, _facets in self.spheres:
            facets = getattr(inputs, name)(seed)
            path = work / f"{name}.json"
            path.write_text(json.dumps({"format": 1, "maximal_faces": facets}))
            files[name] = path
        return {"work": work, "files": files}

    def _sphere_op(self, h, ctx, samples, op: str, sphere) -> None:
        name, dim, facets = sphere
        path = ctx["files"][name]
        if op == "shell":
            report, interval = h.cli_call(f"shell_{name}", "shell", "--complex", path)
            if report is not None:
                h.check(oracles.check_sphere_shell, report, facets)
        else:
            report, interval = h.cli_call(f"homology_{name}", "homology", "--complex",
                                          path, "--integer")
            if report is not None:
                h.check(oracles.check_homology, report, oracles.sphere_betti(dim))
        samples[f"{op}_{name}_s"].append([interval])
        samples["spheres"][-1].append(interval)

    def _level(self, h, ctx, samples, level: int) -> None:
        path = ctx["work"] / f"surf{level}.json"
        report, interval = h.cli_call(f"sl2_{level}", "sl2", "--level", level,
                                      "--emit", path)
        samples["sl2"][-1].append(interval)
        if report is None:
            return
        h.check(oracles.check_sl2, report, level)
        genus = report["genus"]
        h.check(oracles.check_surface_doc, json.loads(path.read_text()), level)
        hom, interval = h.cli_call(f"surface_homology_{level}", "homology", "--complex",
                                   path, "--integer")
        samples["surface_homology"][-1].append(interval)
        if hom is not None:
            h.check(oracles.check_homology, hom, [1, 2 * genus, 1])

    def round(self, h: Harness, ctx: dict, samples: dict) -> None:
        for key in ("spheres", "sl2", "surface_homology"):
            samples[key].append([])
        ladder = sorted(inputs.SL2_LADDER)
        # the largest level is about as costly as all the others together
        chunks = [ladder[0:-1:3], ladder[1:-1:3], ladder[2:-1:3], ladder[-1:]]
        s3, s5 = self.spheres
        sphere_ops = [("shell", s3), ("homology", s3), ("shell", s5), ("homology", s5)]
        for (op, sphere), chunk in zip(sphere_ops, chunks):
            self._sphere_op(h, ctx, samples, op, sphere)
            for level in chunk:
                self._level(h, ctx, samples, level)
        samples["stage1_s"].append(samples["spheres"][-1])
        samples["stage2_s"].append(samples["sl2"][-1] + samples["surface_homology"][-1])

    def details(self, medians: dict) -> dict:
        keys = ("shell_sphere3_s", "homology_sphere3_s", "shell_sphere5_s",
                "homology_sphere5_s")
        out = {k: medians[k] for k in keys}
        out["sl2_s"] = medians["sl2"]
        out["surface_homology_s"] = medians["surface_homology"]
        return out


WORKLOADS = {w.name: w for w in (Enumerate, Reduce, Complexes)}

# (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = (("stage1_s", "s"), ("stage2_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Functions whose calls and self time are per-layer metrics.
LAYER_FUNCTIONS = (
    "minvec.vectors_below",
    "linalg.solve_linear",
    "linalg.is_positive_definite",
    "linalg.matrix_rank",
    "linalg.cone_membership",
    "linalg.smith_normal_form",
    "perfect.is_perfect",
    "perfect.facets_of_cone",
    "perfect.neighbor",
    "perfect.are_equivalent",
    "perfect.Catalog.classify",
    "perfect.Catalog.edge",
    "perfect.Catalog.from_json_dict",
    "reduction.reduce_with_trace",
    "shelling.find_shelling",
    "cells.SimplicialComplex.to_regular",
    "cells.RegularComplex.init",
    "cells.RegularComplex.boundary_matrix",
    "cells.homology",
    "sl2.QuotientTessellation.init",
    "sl2.QuotientTessellation.dual_graph",
    "sl2.QuotientTessellation.surface_complex",
    "cli.main",
)
LAYER_COUNTS = ("reduction.steps", "shelling.nodes", "cells.boundary_nnz")


def per_layer_metrics(summary: dict, untraced_s: float, traced_s: float) -> dict:
    layers, counts, ops = summary["layers"], summary["counts"], summary["operations"]
    out = {}
    for name in LAYER_FUNCTIONS:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    eq = layers.get("perfect.are_equivalent", {"calls": 0})["calls"]
    edge = layers.get("perfect.Catalog.edge", {"calls": 0})["calls"]
    out["perfect.are_equivalent.hit_ratio"] = (
        counts.get("perfect.are_equivalent.hits", 0) / eq if eq else 0.0, "ratio")
    out["perfect.Catalog.edge.cache_hit_ratio"] = (
        counts["perfect.Catalog.edge.cache_hits"] / edge if edge else 0.0, "ratio")
    for name in LAYER_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    out["trace.unattributed_s"] = (sum(op["unattributed_s"] for op in ops.values()), "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def run(workload, seed: int, seconds: int, trace: bool) -> int:
    work = RUN_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    # The traced run reports raw per-layer times, so it runs unprobed.
    clock = None if trace else SpeedClock()
    try:
        if clock:
            clock.start()
        setups = []
        repeats = 1 if trace else workload.setup_repeats
        for _ in range(repeats):
            start = perf_counter()
            cli = import_program()
            work.mkdir(parents=True, exist_ok=True)
            h = Harness(cli)
            ctx = workload.setup(h, seed, work)
            setups.append([(start, perf_counter())])
        if h.failed or h.check_errors:
            raise RuntimeError("set-up failed")
        h = Harness(cli)
        samples: dict[str, list[list[tuple[float, float]]]] = defaultdict(list)
        rounds = 0
        begin = perf_counter()
        while True:
            round_start = perf_counter()
            workload.round(h, ctx, samples)
            rounds += 1
            last = perf_counter() - round_start
            if trace or perf_counter() - begin + last > seconds:
                break
        measured = perf_counter() - begin
        if clock:
            clock.stop()
        untraced_s = sum(h.op_walls)
        result = {"workload": workload.name, "seed": seed, "rounds": rounds,
                  "measured_s": measured}
        if trace:
            tracer = Tracer()
            th = Harness(cli, tracer)
            tracer.install(PACKAGE)
            try:
                workload.round(th, ctx, defaultdict(list))
            finally:
                tracer.uninstall()
            traced_s = sum(th.op_walls)
            summary = tracer.summary()
            metrics = per_layer_metrics(summary, untraced_s, traced_s)
            for name, op in summary["operations"].items():
                gap = op["wall_s"] - op["self_sum_s"] - op["unattributed_s"]
                if abs(gap) > 1e-6 * max(1.0, op["wall_s"]):
                    raise RuntimeError(f"{name}: self times and remainder miss wall by {gap}")
            attempted = h.attempted + th.attempted
            failed = h.failed + th.failed
            errors = h.check_errors + th.check_errors
            result.update(untraced_round_s=untraced_s, traced_round_s=traced_s)
            tracer.dump(RUN_DIR / "traces" / f"{workload.name}-seed{seed}.json", result)
        else:
            samples["setup_s"] = setups

            def seconds_of(measure):
                return {k: [sum(measure(a, b) for a, b in sample) for sample in v]
                        for k, v in samples.items()}

            corrected, wall = seconds_of(clock.corrected), seconds_of(clock.work)
            medians = {k: statistics.median(v) for k, v in corrected.items()}
            wall_medians = {k: statistics.median(v) for k, v in wall.items()}
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = dict(medians, peak_rss_mb=rss_mb)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            attempted, failed, errors = h.attempted, h.failed, h.check_errors
            details, wall_details = workload.details(medians), workload.details(wall_medians)
            result.update(sample_counts={k: len(v) for k, v in samples.items()},
                          details=details, wall_details=wall_details,
                          probes=len(clock.starts), probe_median_s=clock.probe_median(),
                          samples_s=corrected, wall_samples_s=wall)
            for key, value in details.items():
                print(f"{workload.name}: {key} = {value:.6g} (wall {wall_details[key]:.6g})")
            for key in ("stage1_s", "stage2_s", "setup_s"):
                print(f"{workload.name}: {key} = {medians[key]:.6g} "
                      f"(wall {wall_medians[key]:.6g}), median over {len(samples[key])} samples")
            print(f"{workload.name}: {len(clock.starts)} speed probes, "
                  f"median {clock.probe_median() * 1e3:.3f} ms")
        result.update(attempted=attempted, failed=failed, check_errors=errors)
        results = RUN_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(result, indent=1, default=str) + "\n")
        line = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(line))
        return 0
    finally:
        if clock:
            clock.stop()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
