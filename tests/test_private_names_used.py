"""Every private function or class in the package has a caller in the
package: a name with a leading underscore (not a dunder) that only the
tests use belongs in the tests.  A use inside the name's own
definition, such as a recursive call, does not count."""

import ast
import pathlib

import vorocell

SOURCES = sorted(pathlib.Path(vorocell.__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


class Uses(ast.NodeVisitor):
    """The private definitions of a module, and the names it uses
    outside the definitions of those names."""

    def __init__(self):
        self.defined = set()
        self.used = set()
        self.enclosing = []

    def visit_definition(self, node):
        if is_private(node.name):
            self.defined.add(node.name)
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_definition

    def use(self, name):
        if name not in self.enclosing:
            self.used.add(name)

    def visit_Name(self, node):
        self.use(node.id)

    def visit_Attribute(self, node):
        self.use(node.attr)
        self.generic_visit(node)


def test_every_private_definition_is_used_in_the_package():
    defined, used = {}, set()
    for path in SOURCES:
        uses = Uses()
        uses.visit(ast.parse(path.read_text(), filename=str(path)))
        for name in uses.defined:
            defined.setdefault(name, []).append(path.name)
        used |= uses.used
    assert defined
    unused = {name: files for name, files in defined.items() if name not in used}
    assert not unused
