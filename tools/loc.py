"""Count the code lines of Python files.

Usage: python tools/loc.py PATH [PATH ...]

    python tools/loc.py src/loophound/*.py

A code line is one that holds a token other than a comment, a newline,
indentation or a docstring (the first statement of a module, class or
function, when it is a string).  Blank lines, comment lines and docstring
lines are not counted.  A token that spans lines, such as a string that is
not a docstring, counts every line it spans.  A directory stands for the
``*.py`` files below it.  The script prints each file's count, then the
total.

It uses the standard library alone and is not part of the tier-1 tests.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``source`` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    files = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    total = 0
    for path in _files(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7,d}  {path}")
    print(f"{total:7,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
