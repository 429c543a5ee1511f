"""Span tracing of the program's layers, installed from outside it.

:class:`Tracer` wraps the public functions of every module of the
package, plus a few named methods, and records one span per call:
name, start, end, parent span and the benchmark operation it belongs
to.  Spans stay in memory until :meth:`Tracer.summary` and
:meth:`Tracer.dump` read them at the end of the run.  A wrapped name is
patched into every module namespace that imported it, since the
command line imports functions by name.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Methods traced besides the public module-level functions.
METHODS = {
    "perfect": {"Catalog": ("classify", "edge", "from_json_dict")},
    "cells": {
        "SimplicialComplex": ("to_regular",),
        "RegularComplex": ("__init__", "boundary_matrix"),
    },
    "sl2": {"QuotientTessellation": ("__init__", "dual_graph", "surface_complex")},
}

# Called once per lattice point from the innermost loop of the
# Fincke-Pohst sweep: a span each would cost more than the work, so
# their time stays in the self time of vectors_below.
SKIP = {"minvec.canonical_sign", "minvec.is_primitive"}


def _observe_equivalence(counts, result) -> None:
    counts["perfect.are_equivalent.hits"] += result is not None


def _observe_walk(counts, result) -> None:
    counts["reduction.steps"] += result[0].steps


def _observe_shelling(counts, result) -> None:
    counts["shelling.nodes"] += result.nodes_used


def _observe_boundary(counts, result) -> None:
    counts["cells.boundary_nnz"] += len(result)


# Counters read off return values, at the layer boundary.
OBSERVERS = {
    "perfect.are_equivalent": _observe_equivalence,
    "reduction.reduce_with_trace": _observe_walk,
    "shelling.find_shelling": _observe_shelling,
    "cells.RegularComplex.boundary_matrix": _observe_boundary,
}


class Tracer:
    """Records spans for the calls of one package while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, operation]
        self.operations: list[tuple[str, float]] = []  # (label, wall seconds)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self, package: str) -> None:
        pkg = importlib.import_module(package)
        modules = {
            info.name: importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        }
        for short, mod in sorted(modules.items()):
            for attr, fn in sorted(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for other in modules.values():
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, alias, wrapper)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    raw = inspect.getattr_static(cls, meth, None) if cls else None
                    if raw is None:
                        continue
                    name = f"{short}.{cls_name}.{meth.strip('_')}"
                    if isinstance(raw, staticmethod):
                        self._patch(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, tracer._op]
            if observe is not None:
                observe(counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def operation(self, label: str):
        """Attribute the spans opened inside to one benchmark operation."""
        self._op = label
        start = perf_counter()
        try:
            yield
        finally:
            self.operations.append((label, perf_counter() - start))
            self._op = None

    # -- reading the spans ------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self time per span name, plus per-operation
        wall time, top-level span time and the unattributed remainder.

        Self time is a span's duration minus its children's durations,
        so per operation the self times add up to the top-level span
        time, and that plus the remainder is the operation's wall time.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top: dict[str, float] = defaultdict(float)
        self_by_op: dict[str, float] = defaultdict(float)
        edge_hits = 0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            row = layers[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            self_by_op[op] += dur - child[i]
            if parent is None:
                top[op] += dur
            if name == "perfect.Catalog.edge" and child[i] == 0.0:
                edge_hits += 1  # served from the witness cache: no work below
        ops = {}
        for label, wall in self.operations:
            entry = ops.setdefault(label, {"count": 0, "wall_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += wall
        for label, entry in ops.items():
            entry["spans_s"] = top.get(label, 0.0)
            entry["self_sum_s"] = self_by_op.get(label, 0.0)
            entry["unattributed_s"] = entry["wall_s"] - entry["spans_s"]
        counts = dict(self.counts)
        counts["perfect.Catalog.edge.cache_hits"] = edge_hits
        return {"layers": dict(layers), "operations": ops, "counts": counts}

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span and the summary as one JSON document."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["summary"] = self.summary()
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "operation"]
        doc["spans"] = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
