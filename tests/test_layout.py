"""Tooling guards: the library holds only what library code calls.

Every module-level function or class of `src/lagfsi`, and every non-dunder
method, must be referenced by library code outside its own definition.
The names of `lagfsi.__all__` and the console entry point `cli.main` are
the only exemptions.  A helper that only tests call belongs in the tests.

Every optional parameter of a library function, method or constructor must
be set by some library call outside its own definition: by keyword, by
position, or through `*` / `**`.  The console entry point `cli.main` is the
only exemption.  A knob that only tests turn is not a library feature.
Calls are matched by bare name, as references are above.

No class is defined inside a function body: a class made per call holds
reference cycles (through its methods' globals and its own `__mro__` /
`__dict__`), so whatever its instances hold outlives the call until the
cyclic collector runs.

No element sum goes through a ufunc's `.at` method (`np.add.at` and
the like): every element-to-dof sum is an `np.bincount` on an index array,
the one primitive the matrix sums use too.

Every library name the benchmark's tracer (`perfbench/tracer.py`) patches
still exists, so a rename shows here and not only in the benchmark's own
tests.
"""

import ast
import importlib.util
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


def _optional_parameters(module, tree):
    """(module, qualified name, called name, definition node, optional
    parameters) of each module-level function and each method; the called
    name of `__init__` is its class.  Each optional parameter is (name,
    position after any self, or None for keyword-only)."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef

    def optional(fn, method):
        args = fn.args
        pos = (args.posonlyargs + args.args)[1 if method else 0:]
        out = [(p.arg, i) for i, p in enumerate(pos) if i >= len(pos) - len(args.defaults)]
        return out + [(p.arg, None) for p, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]

    out = []
    for node in tree.body:
        if isinstance(node, defs):
            out.append((module, node.name, node.name, node, optional(node, False)))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    called = node.name if item.name == "__init__" else item.name
                    out.append((module, f"{node.name}.{item.name}", called, item,
                                optional(item, True)))
    return out


def _calls(module, tree):
    """(module, line, called name, positional count, keywords, starred) of
    every call by name or attribute; starred is set by `*` or `**`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        yield module, node.lineno, name, len(node.args), {k.arg for k in node.keywords}, starred


def unset_optional_parameters(src=SRC):
    signatures, calls = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        signatures += _optional_parameters(path.stem, tree)
        calls += _calls(path.stem, tree)
    unset = []
    for module, qualname, called, node, optional in signatures:
        if (module, qualname) in EXEMPT:
            continue
        outside = [c for c in calls if c[2] == called
                   and not (c[0] == module and node.lineno <= c[1] <= node.end_lineno)]
        for param, position in optional:
            if not any(param in keywords or starred or (position is not None and npos > position)
                       for _, _, _, npos, keywords, starred in outside):
                unset.append(f"{module}.{qualname}({param})")
    return unset


def test_every_optional_parameter_is_set_by_a_library_call():
    assert unset_optional_parameters() == []


def test_guard_flags_a_test_only_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, by_position=1, by_keyword=2, only_tests=3, *, kw_only=4):\n"
        "    return f(a, 0, 0, 0, kw_only=0)\n\n\n"
        "def g(a, through_star=1, through_dstar=2):\n    return a\n\n\n"
        "class Box:\n    def __init__(self, size=1, colour=2):\n        self.size = size\n\n"
        "    def open(self, wide=False):\n        return wide\n"
    )
    (tmp_path / "user.py").write_text(
        "from .mod import Box, f, g\n\n"
        "x = f(1, 2, by_keyword=3), g(*[1, 2]), g(1, **{}), Box(colour=0).open(True)\n"
    )
    assert unset_optional_parameters(tmp_path) == [
        "mod.f(only_tests)", "mod.f(kw_only)", "mod.Box.__init__(size)",
    ]


def nested_classes(src=SRC):
    """module:line of every class statement inside a function body."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                out += [f"{path.stem}:{node.lineno}" for node in ast.walk(fn)
                        if isinstance(node, ast.ClassDef)]
    return sorted(set(out))


def test_no_class_is_defined_in_a_function():
    assert nested_classes() == []


def test_guard_flags_a_class_in_a_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Top:\n    def method(self):\n        class Inner:\n            pass\n"
        "        return Inner\n\n\n"
        "def f():\n    def g():\n        class Deep:\n            pass\n        return Deep\n"
        "    return g\n"
    )
    assert nested_classes(tmp_path) == ["mod:10", "mod:3"]


def ufunc_at_calls(src=SRC):
    """module:line of every call of an `.at` method, such as np.add.at."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"]
    return sorted(out)


def test_no_ufunc_at_call():
    assert ufunc_at_calls() == []


def test_guard_flags_a_ufunc_at_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom numpy import maximum\n\n\n"
        "def f(out, i, x):\n    np.add.at(out, i, x)\n    maximum.at(out, i, x)\n"
        "    return np.bincount(i, x, minlength=len(out)), out.at\n"
    )
    assert ufunc_at_calls(tmp_path) == ["mod:6", "mod:7"]


def test_benchmark_traced_names_resolve():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer("x").targets()
