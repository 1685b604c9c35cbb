"""Every name a package module imports is used there.  No linter runs on
this tree, so this is its guard against dead imports."""
import ast

import pytest

from conftest import PKG_ROOT

MODULES = sorted(p for p in (PKG_ROOT / "src" / "filtra").glob("*.py")
                 if p.name != "__init__.py")

# imported only so that perfbench/layers.py can trace it under this module
ALLOWED = {("groebner", "count_box_complement")}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom typing import List, Dict\n"
                    "def f(x: \"List[int]\"):\n    return os.sep\n")
    assert unused_imports(path) == ["Dict"]
