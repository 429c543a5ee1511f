"""Command-line entry point.

Subcommands cover catalog enumeration, reduction of a form against a
catalog, congruence-quotient builds, shelling certification, the
symplectic 4-cell verifier, building quotients, and homology of a
complex loaded from JSON.  All output is deterministic: repeating an
invocation produces byte-identical stdout and files.

Start-up loads only the catalog layer that the loaders below use:
``obs``, ``linalg`` and ``perfect``, which imports ``minvec``.  Every
other module is imported at the top of the one command function that
runs it (``reduction`` in ``reduce``, ``sl2`` and ``cells`` in
``sl2``, ``shelling`` in ``shell``, ``sp4`` in ``sp4 verify``,
``parabolic`` in ``building``, ``cells`` in ``homology`` and the
complex loaders).  A process without cached bytecode compiles every
module it imports, so a command pays only for the modules it runs.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from . import obs
from .linalg import SymMatrix
from .perfect import Catalog, CatalogError, enumerate_perfect_forms

CATALOG_DIR_VAR = "VOROCELL_CATALOG_DIR"


class CliError(Exception):
    """Usage or precondition failure; maps to exit code 2."""


# what a loader raises on a well-formed JSON document of the wrong shape;
# ArithmeticError covers entries such as "1/0" and Infinity
_BAD_DOCUMENT = (ValueError, KeyError, TypeError, ArithmeticError)


def _fault(e: Exception) -> str:
    """A loader's exception as a message; a KeyError names the field."""
    if isinstance(e, KeyError):
        return f"missing field {e.args[0]!r}"
    return str(e)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _dump_regular(cx: RegularComplex) -> str:
    """The bytes of ``json.dumps(cx.to_json_dict(), indent=2)`` and a
    newline, written straight from ``cx.ids`` and ``cx.faces`` for the
    one large document, ``sl2 --emit``, without building its dict.  The
    document's shape is fixed, so each face object is one f-string, and
    each id is encoded once, not once per face that names it."""
    dims = cx.f_vector()
    out = ['{\n  "format": 1,\n  "dims": ',
           "[\n    " + ",\n    ".join(map(str, dims)) + "\n  ]" if dims else "[]",
           ',\n  "cells": [']
    sep = "\n    "
    below: list[str] = []
    for d, (group, cells) in enumerate(zip(cx.ids, cx.faces)):
        names = [encode_basestring_ascii(cid) for cid in group]
        for name, cell in zip(names, cells):
            faces = ",".join([
                f'\n        {{\n          "id": {below[k]},\n          "sign": {s}\n        }}'
                for k, s in cell
            ])
            faces = f"[{faces}\n      ]" if faces else "[]"
            out.append(
                f'{sep}{{\n      "id": {name},\n      "dim": {d},\n      "faces": {faces}\n    }}'
            )
            sep = ",\n    "
        below = names
    out.append("\n  ]\n}\n" if any(dims) else "]\n}\n")
    return "".join(out)


def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise CliError(f"{path}: no such file")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}:{e.lineno}:{e.colno}: malformed JSON: {e.msg}") from e
    except ValueError as e:  # an integer literal over the digit limit of int()
        raise CliError(f"{path}: {str(e).split(';')[0]}") from e
    except RecursionError as e:
        raise CliError(f"{path}: JSON nested too deeply") from e
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object")
    return doc


def _emit(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}") from e


def _resolve(path_str: Optional[str]) -> Optional[Path]:
    """Resolve a --out, --resume or --emit path, honoring the default
    catalog directory for relative paths when the environment variable
    is set."""
    if path_str is None:
        return None
    p = Path(path_str)
    base = os.environ.get(CATALOG_DIR_VAR)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _load_form(path: Path) -> SymMatrix:
    doc = _load_json(path)
    if "rows" not in doc:
        raise CliError(f"{path}: expected a form document with a 'rows' field")
    try:
        return SymMatrix.from_json_dict(doc)
    except _BAD_DOCUMENT as e:
        raise CliError(f"{path}: bad form document: {_fault(e)}") from e


def _load_catalog(path: Path) -> Catalog:
    doc = _load_json(path)
    try:
        return Catalog.from_json_dict(doc)
    except _BAD_DOCUMENT as e:
        raise CliError(f"{path}: bad catalog document: {_fault(e)}") from e


def _load_any_complex(path: Path) -> "RegularComplex | SimplicialComplex":
    from .cells import RegularComplex, SimplicialComplex

    doc = _load_json(path)
    try:
        if "maximal_faces" in doc:
            return SimplicialComplex.from_json_dict(doc)
        if "cells" in doc:
            return RegularComplex.from_json_dict(doc)
    except _BAD_DOCUMENT as e:
        raise CliError(f"{path}: bad complex document: {_fault(e)}") from e
    raise CliError(f"{path}: expected 'maximal_faces' or 'cells'")


def _load_simplicial(path: Path) -> SimplicialComplex:
    from .cells import SimplicialComplex

    cx = _load_any_complex(path)
    if not isinstance(cx, SimplicialComplex):
        raise CliError(f"{path}: this command needs a simplicial complex "
                       "(a 'maximal_faces' document)")
    return cx


# -- subcommands ---------------------------------------------------------


def _cmd_perfect_enumerate(ns: argparse.Namespace) -> int:
    if ns.limit is not None and ns.limit <= 0:
        raise CliError("--limit must be positive")
    resume = _resolve(ns.resume)
    resume_catalog = None
    n = ns.n
    if resume is not None:
        resume_catalog = _load_catalog(resume)
        if n is not None and n != resume_catalog.n:
            raise CliError(
                f"--n {n} conflicts with resumed catalog dimension {resume_catalog.n}"
            )
        n = resume_catalog.n
        if n < 2:
            raise CliError(f"{resume}: catalog has dimension {n}; enumeration needs at least 2")
    if n is None:
        raise CliError("one of --n or --resume is required")
    if n < 2:
        raise CliError("--n must be at least 2")
    catalog = enumerate_perfect_forms(n, limit=ns.limit, catalog=resume_catalog)
    doc = catalog.to_json_dict()
    out = _resolve(ns.out) or resume
    if out is not None:
        _emit(out, _dump(doc))
        summary = {
            "format": 1,
            "n": catalog.n,
            "classes": len(catalog.records),
            "complete": catalog.complete,
            "catalog": str(out),
        }
        sys.stdout.write(_dump(summary))
    else:
        sys.stdout.write(_dump(doc))
    return 0


def _cmd_reduce(ns: argparse.Namespace) -> int:
    from .reduction import voronoi_reduce

    form_path, catalog_path = Path(ns.form), Path(ns.catalog)
    form = _load_form(form_path)
    catalog = _load_catalog(catalog_path)
    try:
        result = voronoi_reduce(form, catalog)
    except CatalogError as e:
        raise CliError(f"{catalog_path}: {e}") from e
    except ValueError as e:  # the form is checked before the walk starts
        raise CliError(f"{form_path}: {e}") from e
    doc = {
        "format": 1,
        "class_index": result.class_index,
        "steps": result.steps,
        "witness": [list(row) for row in result.witness],
        "support": list(result.support),
        "coefficients": [str(c) for c in result.coefficients],
    }
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_sl2(ns: argparse.Namespace) -> int:
    from .cells import homology
    from .sl2 import QuotientTessellation, genus_report, h1_rank, vcd_vanishing_check

    try:
        tess = QuotientTessellation(ns.level)
    except ValueError as e:
        raise CliError(str(e)) from e
    report = genus_report(tess)
    graph = tess.dual_graph()
    graph_homology = homology(graph)
    out = _resolve(ns.emit)
    if out is not None:
        emitted = graph if ns.dual else tess.surface_complex()
        _emit(out, _dump_regular(emitted))
    doc = {
        "format": 1,
        "level": ns.level,
        "triangles": report.triangles,
        "edges": report.edges,
        "cusps": report.cusps,
        "genus": report.genus,
        "genus_ratio": str(report.ratio),
        "h1_rank": h1_rank(graph_homology),
        "vcd_vanishing": vcd_vanishing_check(graph_homology),
    }
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_shell(ns: argparse.Namespace) -> int:
    from .shelling import certify_sphere

    if ns.budget <= 0:
        raise CliError("--budget must be positive")
    cx = _load_simplicial(Path(ns.complex_path))
    try:
        cert = certify_sphere(cx, ns.budget)
    except ValueError as e:
        raise CliError(str(e)) from e
    doc = {
        "format": 1,
        "status": cert.status,
        "detail": cert.detail,
        "facets": len(cx.maximal_faces),
        "nodes_used": cert.nodes_used,
    }
    sys.stdout.write(_dump(doc))
    return 0 if cert.status in ("sphere", "ball") else 1


def _cmd_sp4_verify(ns: argparse.Namespace) -> int:
    from .sp4 import verify_model

    report = verify_model()
    sys.stdout.write(_dump(report.to_json_dict()))
    return 0 if report.ok else 1


def _cmd_building(ns: argparse.Namespace) -> int:
    from .parabolic import building_quotient

    n = ns.n
    try:
        b = building_quotient(n)
    except ValueError as e:
        raise CliError(str(e)) from e
    labeled = b.labeled_simplices()
    simplices = [
        {
            "cuts": list(cuts),
            "dim": len(cuts) - 1,
            "partition": str(partition),
        }
        for cuts, partition in sorted(labeled.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    doc = {
        "format": 1,
        "n": n,
        "count": len(simplices),
        "f_vector": list(b.complex.f_vector()),
        "simplices": simplices,
    }
    out = _resolve(ns.emit)
    if out is not None:
        _emit(out, _dump(b.complex.to_json_dict()))
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_homology(ns: argparse.Namespace) -> int:
    from .cells import homology

    cx = _load_any_complex(Path(ns.complex_path))
    result = homology(cx)
    doc: dict = {"format": 1, "betti": list(result.betti)}
    if ns.integer:
        doc["torsion"] = [list(t) for t in result.torsion]
    sys.stdout.write(_dump(doc))
    return 0


# -- argument parsing ------------------------------------------------------


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vorocell",
        description="Exact-arithmetic cell complexes from quadratic forms "
        "and arithmetic quotients.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="print the run's counters as one JSON line on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_perfect = sub.add_parser("perfect", help="perfect-form catalogs")
    perfect_sub = p_perfect.add_subparsers(dest="perfect_command", required=True)
    p_enum = perfect_sub.add_parser(
        "enumerate", help="enumerate perfect-form classes by neighbor traversal"
    )
    p_enum.add_argument("--n", type=int, help="form dimension")
    p_enum.add_argument("--resume", metavar="CATALOG", help="continue a saved catalog")
    p_enum.add_argument("--out", metavar="PATH", help="write the catalog here")
    p_enum.add_argument("--limit", type=int, help="stop after this many classes")
    p_enum.set_defaults(func=_cmd_perfect_enumerate)

    p_reduce = sub.add_parser(
        "reduce", help="reduce a positive-definite form against a catalog"
    )
    p_reduce.add_argument("--form", required=True, metavar="FORM_JSON")
    p_reduce.add_argument("--catalog", required=True, metavar="CATALOG_JSON")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_sl2 = sub.add_parser("sl2", help="congruence quotient of the level-N tessellation")
    p_sl2.add_argument("--level", type=int, required=True)
    p_sl2.add_argument("--emit", metavar="PATH", help="write the surface complex here")
    p_sl2.add_argument(
        "--dual", action="store_true", help="emit the dual graph instead of the surface"
    )
    p_sl2.set_defaults(func=_cmd_sl2)

    p_shell = sub.add_parser("shell", help="certify a complex as a sphere or ball")
    p_shell.add_argument("--complex", required=True, dest="complex_path", metavar="JSON")
    p_shell.add_argument("--budget", type=int, default=10_000_000)
    p_shell.set_defaults(func=_cmd_shell)

    p_sp4 = sub.add_parser("sp4", help="symplectic 4-cell accounting")
    sp4_sub = p_sp4.add_subparsers(dest="sp4_command", required=True)
    sp4_sub.add_parser("verify", help="check every stated identity").set_defaults(
        func=_cmd_sp4_verify
    )

    p_building = sub.add_parser("building", help="finite building quotient for SL_n")
    p_building.add_argument("--n", type=int, required=True)
    p_building.add_argument("--emit", metavar="PATH", help="write the complex here")
    p_building.set_defaults(func=_cmd_building)

    p_hom = sub.add_parser("homology", help="homology of a complex from JSON")
    p_hom.add_argument("--complex", required=True, dest="complex_path", metavar="JSON")
    p_hom.add_argument(
        "--integer", action="store_true", help="integer homology with torsion"
    )
    p_hom.set_defaults(func=_cmd_homology)
    return parser


def _run(ns: argparse.Namespace) -> int:
    try:
        return ns.func(ns)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    if not ns.verbose:
        return _run(ns)
    with obs.collecting() as counters:
        try:
            return _run(ns)
        finally:
            print(json.dumps(counters, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
