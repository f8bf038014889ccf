"""No module of the package imports a name that it never references, a
`_`-prefixed name of another module or `dataclasses`, every public function or
method it defines is named outside its definition, and none takes both a
`schema` and an `instance`: the instance carries its schema.
Every module of the package and of the tests parses as Python 3.10, the
oldest version `pyproject.toml` admits.  Each CLI command, run in a fresh
interpreter, loads the modules of the layers it runs and no other module of
the package, and neither `dataclasses` nor `inspect`: each command is one
process and pays for every module its start-up loads.

`__init__.py` is skipped, since its imports are the package's re-exports, and
so is `from __future__ import ...`.  A function or method counts as named
when its name occurs, as a word, somewhere in the package, in `bench/` or in
README.md beyond its definitions; one that only tests name is state the
program does not consume.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fixture_edits import FIXTURES, fixture_args

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdclean"
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


def test_every_module_parses_as_the_oldest_python_the_package_supports():
    # pyproject.toml declares requires-python >= 3.10; the tests run on a later version
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Callable, Iterator\n"
        "def f(x: 'Callable') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterator"]


def private_imports(source: str) -> list[str]:
    """The `_`-prefixed names that `source` imports from other modules, in
    import order: a module's private names are its own."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_private_name_of_another(module):
    assert private_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "import os, _thread\n"
        "from .datalog import Database, _fire\n"
        "from .model import _Plan as Plan\n"
        "def f():\n"
        "    from .chase import _Agenda\n"
    )
    assert private_imports(source) == ["_fire", "_Plan", "_Agenda"]


def imported_modules(source: str) -> list[str]:
    """The modules that `source` imports, absolute or relative, in import order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append("." * node.level + (node.module or ""))
    return out


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    # importing it loads `inspect`, `ast`, `dis` and `tokenize`, and each
    # decorated class execs generated source: start-up every command pays
    modules = imported_modules((PACKAGE / module).read_text(encoding="utf-8"))
    assert [m for m in modules if m.split(".")[0] == "dataclasses"] == []


def test_the_check_sees_a_dataclasses_import():
    source = (
        "import os, dataclasses\n"
        "from .datalog import Var\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
    )
    assert imported_modules(source) == ["os", "dataclasses", ".datalog", "dataclasses"]


QUERY = ["--query", str(FIXTURES / "divergent" / "queries.txt")]
# `import mdclean.cli` loads these and no other module of the package
CLI = {"mdclean", "mdclean.cli", "mdclean.errors", "mdclean.model"}
# reading the rules and the queries adds their parsers
READERS = CLI | {"mdclean.datalog", "mdclean.mdlang", "mdclean.query"}
# every module but `unions`, which only reading a token-union domain's values loads
EVERY = {"mdclean"} | {
    f"mdclean.{p.stem}" for p in PACKAGE.glob("*.py")
    if p.stem not in ("__init__", "__main__", "unions")
}
LOADS = {
    "validate-schema": (["validate", "--schema", str(FIXTURES / "convergent" / "schema.txt")], CLI),
    "validate": (["validate", *fixture_args("convergent"), *QUERY], READERS),
    "classify": (["classify", *fixture_args("convergent")], READERS | {"mdclean.classify"}),
    "chase": (["chase", "--all", *fixture_args("convergent")], READERS | {"mdclean.chase"}),
    # emitting the ASP program neither classifies nor reads queries
    "emit-asp": (["emit-asp", *fixture_args("convergent")],
                 READERS - {"mdclean.query"} | {"mdclean.codegen"}),
    "emit-datalog": (["emit-datalog", *fixture_args("convergent")],
                     READERS | {"mdclean.classify", "mdclean.codegen"}),
    "solve": (["solve", *fixture_args("convergent")], EVERY),
    "answer": (["answer", *fixture_args("convergent"), *QUERY], EVERY),
    # a diverging setting is answered by chasing, without a residual program
    "answer-diverging": (["answer", *fixture_args("divergent"), *QUERY], EVERY - {"mdclean.codegen"}),
}


@pytest.mark.parametrize("command", LOADS)
def test_each_command_loads_only_the_layers_it_runs(command):
    # each CLI command is one process and pays for every module it loads;
    # `answer` and `solve` load them all but `unions`, so no module of the
    # package may bring in `dataclasses` or `inspect`.  The modules `site`
    # preloads are in both snapshots, so only the ones the command loads are
    # left.
    argv, expected = LOADS[command]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mdclean.cli\n"
        "code = mdclean.cli.main(sys.argv[1:])\n"
        "print(code, mdclean.cli.__file__)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", os.devnull],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          check=True)
    status, loaded = proc.stdout.splitlines()
    exit_code, where = status.split()
    assert (exit_code, Path(where).resolve().parent) == ("0", PACKAGE.resolve()), proc.stderr
    assert {m for m in loaded.split() if m.split(".")[0] == "mdclean"} == expected
    assert {"dataclasses", "inspect"}.isdisjoint(loaded.split())


def unnamed_functions(sources: list[str], texts: list[str]) -> list[str]:
    """The public functions and methods defined at the top level of `sources`
    or in their classes whose name occurs, as a word, in `sources` and
    `texts` no more often than it is defined, sorted."""
    defined: Counter = Counter()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef)):
                defined.update(
                    d.name for d in node.body
                    if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
                )
    words = Counter(w for text in (*sources, *texts) for w in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_every_public_function_is_named_by_the_program_or_its_readme():
    sources = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    texts = [(PACKAGE / "__init__.py").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    assert unnamed_functions(sources, texts) == []


def test_the_check_sees_a_function_only_its_definition_names():
    source = (
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def unused():\n"
        "    def inner():\n"
        "        pass\n"
        "class C:\n"
        "    def read(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def load(self):\n"
        "        pass\n"
        "class D:\n"
        "    def load(self):\n"
        "        pass\n"
    )
    # `used` is named in the README, `read` in a bench script, and `load` is
    # named by no more than its two definitions
    texts = ["Call `used()`.", "C().read()"]
    assert unnamed_functions([source], texts) == ["load", "unused"]


def schema_and_instance(source: str) -> list[str]:
    """The public functions and methods defined at the top level of `source`
    or in its classes that take both a `schema` and an `instance` parameter."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for d in node.body:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    args = d.args
                    params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                    if {"schema", "instance"} <= params:
                        out.append(d.name)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_public_function_takes_a_schema_beside_an_instance(module):
    assert schema_and_instance((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_a_schema_beside_an_instance():
    source = (
        "def emit(schema, instance, rules):\n"
        "    def inner(schema, instance):\n"
        "        pass\n"
        "def _helper(schema, instance):\n"
        "    pass\n"
        "def load(schema, path):\n"
        "    pass\n"
        "class C:\n"
        "    def check(self, rules, *, schema, instance):\n"
        "        pass\n"
        "    def read(self, instance):\n"
        "        pass\n"
    )
    assert schema_and_instance(source) == ["emit", "check"]
