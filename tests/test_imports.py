"""Every name a package module imports is used there, every local a
function assigns is read there, and every function or method the package
defines is named somewhere in the package.  No linter runs on this tree, so
this is its guard against dead imports, dead locals and code that only
tests reach."""
import ast

import pytest

from conftest import PKG_ROOT

MODULES = sorted(p for p in (PKG_ROOT / "src" / "filtra").glob("*.py")
                 if p.name != "__init__.py")

# imported only so that perfbench/layers.py can trace it under this module
ALLOWED = {("groebner", "count_box_complement")}

# functions no package module names, each with the reason it stays
UNREFERENCED = {
    "clear_cache": "perfbench/run.py calls it before each pass",
    "fingerprint": "perfbench/layers.py reads it from every basis it traces",
}


def _annotation_names(tree) -> set:
    """Names inside annotations written as strings, such as "IdealHandle"."""
    out = set()
    for node in ast.walk(tree):
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                out |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name)}
    return out


def unused_imports(path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return sorted(name for name in imported
                  if name not in used and (path.stem, name) not in ALLOWED)


def unused_locals(path) -> list:
    """(function, name) for each name a function assigns and never reads;
    a read in a nested function counts, and ``_`` is exempt."""
    out = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)  # a write to an outer scope
            elif isinstance(node, ast.Name):
                (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
        out |= {(fn.name, name) for name in stored - read if name != "_"}
    return sorted(out)


def unreferenced_functions(paths) -> list:
    """(file, name) for each function or method defined in ``paths`` whose
    name no Name or attribute in ``paths`` reads.  Dunders are called by
    the language, and ``check_*`` are dispatched by name from
    ``checkers.CHECKS``, so neither counts."""
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    out = set()
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name not in named and node.name not in UNREFERENCED
                    and not node.name.startswith(("__", "check_"))):
                out.add((fname, node.name))
    return sorted(out)


def test_every_function_is_named_in_the_package():
    assert unreferenced_functions(sorted((PKG_ROOT / "src" / "filtra").glob("*.py"))) == []


def test_the_guard_sees_an_unreferenced_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class A:\n    def __init__(self):\n        self.f()\n"
                    "    def f(self):\n        return helper\n"
                    "    def g(self):\n        pass\n"
                    "def helper():\n    pass\n"
                    "def check_x():\n    pass\n"
                    "def clear_cache():\n    pass\n"
                    "def orphan():\n    pass\n")
    assert unreferenced_functions([path]) == [("sample.py", "g"), ("sample.py", "orphan")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom typing import List, Dict\n"
                    "def f(x: \"List[int]\"):\n    return os.sep\n")
    assert unused_imports(path) == ["Dict"]


def test_the_guard_sees_an_unused_local(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(xs):\n    total = 0\n    for i, (a, b) in enumerate(xs):\n"
                    "        total += a\n    def g():\n        nonlocal total\n"
                    "        total = 1\n    g()\n    return total\n")
    assert unused_locals(path) == [("f", "b"), ("f", "i")]
