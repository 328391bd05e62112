"""Tooling guard: the library holds only what library code calls.

Every module-level function or class of `src/lagfsi`, and every non-dunder
method, must be referenced by library code outside its own definition.
The names of `lagfsi.__all__` and the console entry point `cli.main` are
the only exemptions.  A helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

import lagfsi

SRC = Path(lagfsi.__file__).parent
EXEMPT = {("cli", "main")}


def _definitions(module, tree):
    """(module, qualified name, bare name, first line, last line) of each
    module-level function or class and each non-dunder method."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        out.append((module, node.name, node.name, first, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out.append((module, f"{node.name}.{item.name}", item.name, first,
                                item.end_lineno))
    return out


def _references(module, tree):
    """(module, line, name) of every name and attribute use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield module, node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield module, node.end_lineno, node.attr


def unreferenced_names(src=SRC):
    definitions, references = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += _definitions(path.stem, tree)
        references += _references(path.stem, tree)
    by_name = {}
    for module, line, name in references:
        by_name.setdefault(name, []).append((module, line))
    unused = []
    for module, qualname, name, first, last in definitions:
        if name in lagfsi.__all__ or (module, qualname) in EXEMPT:
            continue
        outside = [
            (m, line) for m, line in by_name.get(name, [])
            if not (m == module and first <= line <= last)
        ]
        if not outside:
            unused.append(f"{module}.{qualname}")
    return unused


def test_every_library_name_has_a_library_caller():
    assert unreferenced_names() == []


def test_guard_flags_a_test_only_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper_used()\n\n\n"
        "def helper_used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Box:\n    def __init__(self):\n        self.open()\n\n"
        "    def open(self):\n        return Box\n\n    def only_tests(self):\n        return 0\n"
    )
    (tmp_path / "user.py").write_text("from .mod import Box, used\n\nx = used(), Box()\n")
    assert unreferenced_names(tmp_path) == ["mod.recursive", "mod.Box.only_tests"]
