"""No module of the package imports a name that it never references.

`__init__.py` is skipped, since its imports are the package's re-exports, and
so is `from __future__ import ...`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdclean"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    trees = [tree]
    # a quoted annotation names what it reads in its text
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            trees.append(ast.parse(note.value, mode="eval"))
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name, _ in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Callable, Iterator\n"
        "def f(x: 'Callable') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterator"]
