"""Every imported name is used, and every private name of the package is
referenced where it is defined.

Each ``.py`` file under ``src/``, ``tests/``, ``perfbench/``, ``demos/``
and ``tools/`` is parsed with ``ast``, and a name an import binds that the
module never loads fails.  A name counts as used when the module loads it,
names it in an annotation or lists it in ``__all__``; a line marked
``# noqa: F401`` keeps its name, for an import that exists to be
re-exported.

In each module of ``src/loophound``, a private name (one underscore, not a
dunder) that the module defines at its top level, as a function, a class or
an assigned name, or as a method of one of its classes, fails unless the
module references it: loads it as a name, reads it as an attribute, or
spells it as a string, as ``getattr`` and a generated function's namespace
do."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def used_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` loads, in annotations too, and the strings of its
    ``__all__``.  A quoted annotation is not read: with ``from __future__
    import annotations`` no annotation needs quotes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used and NOQA not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return sorted(unused)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private top-level function, class or assigned
    name, and each private method, that ``source`` never references."""
    tree = ast.parse(source)
    defined: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [
                (n.lineno, n.id)
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
        if isinstance(node, ast.ClassDef):
            defined += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            referenced.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            referenced.add(node.value)
    return sorted(
        (line, name)
        for line, name in defined
        if is_private(name) and name not in referenced
    )


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import Iterable, Optional\n"
        "from json import dumps  # noqa: F401\n"
        "from json import loads as decode\n"
        "__all__ = ['decode']\n"
        "def f(x: Optional[int]):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (3, "Iterable")]


def test_every_imported_name_is_used():
    tops = ("src", "tests", "perfbench", "demos", "tools")
    paths = sorted(p for top in tops for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_scan_finds_an_unreferenced_private_name():
    source = (
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "def _orphan():\n"
        "    return _helper()\n"
        "class _Thing:\n"
        "    def __init__(self):\n"
        "        self._state = self._build()\n"
        "    def _build(self):\n"
        "        return getattr(self, '_named')()\n"
        "    def _named(self):\n"
        "        return 1\n"
        "    def _dead(self):\n"
        "        return 2\n"
        "class _Lonely:\n"
        "    pass\n"
        "__all__ = ['_Thing']\n"
    )
    assert unreferenced_private_names(source) == [
        (2, "_UNUSED"), (5, "_orphan"), (14, "_dead"), (16, "_Lonely"),
    ]


def test_every_private_name_is_referenced_in_its_module():
    paths = sorted((ROOT / "src" / "loophound").rglob("*.py"))
    assert len(paths) > 10
    unreferenced = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for line, name in unreferenced_private_names(path.read_text(encoding="utf-8"))
    ]
    assert unreferenced == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports absolutely."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module.split(".")[0])
    return modules


def test_the_scan_finds_a_json_or_csv_import():
    source = (
        "import json.decoder\n"
        "def f():\n"
        "    from csv import writer\n"
        "    from . import runfiles\n"
    )
    assert imported_modules(source) == {"json", "csv"}


def test_only_runfiles_reads_and_writes_json_and_csv():
    """The run directory's formats have one reader and writer each, in
    ``runfiles``.  ``formalizer`` speaks JSON to a remote model, not to a
    file of the run directory."""
    paths = sorted((ROOT / "src" / "loophound").rglob("*.py"))
    importers = [
        path.name
        for path in paths
        if imported_modules(path.read_text(encoding="utf-8")) & {"json", "csv"}
    ]
    assert importers == ["formalizer.py", "runfiles.py"]
