"""The runtime is pure standard library: every absolute import in the
package names a standard-library module.  sympy, hypothesis and pytest
are test-only oracles."""

import ast
import pathlib
import sys

import vorocell

SOURCES = sorted(pathlib.Path(vorocell.__file__).parent.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside
