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
do.

A public function, class or method of ``src/loophound`` (not a dunder) fails
unless ``src/``, ``demos/`` or ``perfbench/`` names it outside its own
definition, so no library code is kept that only tests call; the one
listed entry point, with its reason, is kept for a deployment."""

from __future__ import annotations

import ast
import re
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


# public definitions of src/loophound that nothing in the program names: each
# is an entry point for a caller outside it, and what it names counts as named
ENTRY_POINTS = {
    "RemoteBackend.from_environment": (
        "a deployment setting: a deployment builds the formalizer's remote "
        "backend from its environment variables"
    ),
}


def public_definitions(tree: ast.Module) -> list[tuple[str, str, int, int]]:
    """(qualified name, name, first line, last line) of each public
    top-level function or class and each public method of those classes;
    dunders are not public."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [d for d in found if not d[1].startswith("_")]


def namings(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name ``tree`` loads or stores, each attribute,
    each imported name, and each word of a string that is a dotted name, as
    ``getattr`` and a traced name such as ``"economy.settle"`` spell one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name.split(".")[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                found += [(word, node.lineno) for word in node.value.split(".")]
    return found


def unnamed_public_definitions(
    sources: dict[str, str], checked: list[str], entry_points=()
) -> list[str]:
    """``file:line qualified-name`` of each public definition of a ``checked``
    file that no file of ``sources`` names outside the definition itself.
    A naming inside an ``entry_points`` definition counts."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    names = {path: namings(tree) for path, tree in trees.items()}
    roots = {
        (path, first, last)
        for path in checked
        for qualified, _, first, last in public_definitions(trees[path])
        if qualified in entry_points
    }

    def named(name: str, path: str, first: int, last: int) -> bool:
        return any(
            word == name
            and (
                other != path
                or not first <= line <= last
                or any(root[0] == other and root[1] <= line <= root[2] for root in roots)
            )
            for other, found in names.items()
            for word, line in found
        )

    return [
        f"{path}:{first} {qualified}"
        for path in checked
        for qualified, name, first, last in public_definitions(trees[path])
        if qualified not in entry_points and not named(name, path, first, last)
    ]


def test_the_scan_finds_a_public_name_nothing_else_names():
    library = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Backend:\n"
        "    def generate(self):\n"
        "        return used()\n"
        "    def spare(self):\n"
        "        return self.generate()\n"
        "    @classmethod\n"
        "    def deployed(cls) -> 'Backend':\n"
        "        return cls()\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def traced():\n"
        "    return 2\n"
        "def _private():\n"
        "    return 3\n"
    )
    caller = "from lib import used\nTRACED = ('lib', 'traced')\n"
    sources = {"lib.py": library, "caller.py": caller}
    assert unnamed_public_definitions(sources, ["lib.py"]) == [
        "lib.py:3 recursive", "lib.py:5 Backend", "lib.py:8 Backend.spare",
        "lib.py:11 Backend.deployed",
    ]
    assert unnamed_public_definitions(sources, ["lib.py"], {"Backend.deployed"}) == [
        "lib.py:3 recursive", "lib.py:8 Backend.spare",
    ]


def test_every_public_definition_is_named_by_the_program():
    """No library code only tests call: each public function, class and
    method of ``src/loophound`` is named in ``src/``, ``demos/`` or
    ``perfbench/`` outside its own definition, or listed in ENTRY_POINTS
    with its reason."""
    paths = sorted(p for top in ("src", "demos", "perfbench") for p in (ROOT / top).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    checked = [path for path in sources if path.startswith("src/loophound/")]
    assert len(checked) > 10
    assert unnamed_public_definitions(sources, checked, ENTRY_POINTS) == []
