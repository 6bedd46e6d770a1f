"""Every imported name is used: each ``.py`` file under ``src/``, ``tests/``,
``perfbench/`` and ``demos/`` is parsed with ``ast``, and a name an import
binds that the module never loads fails.  A name counts as used when the
module loads it, names it in an annotation or lists it in ``__all__``; a
line marked ``# noqa: F401`` keeps its name, for an import that exists to
be re-exported."""

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
    tops = ("src", "tests", "perfbench", "demos")
    paths = sorted(p for top in tops for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
