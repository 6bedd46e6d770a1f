"""Mutation testing of one module: which one-operator changes do the tests miss?

Usage: python tools/mutants.py MODULE FOCUSED_TEST [FOCUSED_TEST ...]

    python tools/mutants.py src/loophound/taxation.py tests/test_taxation.py

Each mutant swaps one operator of MODULE: a comparison (``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and
``is not``), the ``and`` or ``or`` of one boolean expression, or one
arithmetic operator (``+`` and ``-``, ``*`` and ``/``).  The source text is
edited at the operator, so every other line stays as it is.

The repository is copied to a temporary directory (``TMPDIR`` chooses where)
and every run happens there, never in the checkout.  The unmutated copy must
pass the focused tests first.  Each mutant then runs against the focused
tests, and one that survives them runs again against all of ``tests/``; a
run that fails, or takes ten times as long as the unmutated focused run,
kills its mutant.  The script prints each mutant that survives everything as
``MODULE:LINE: old -> new`` and ends with the score, killed out of all.

It uses the standard library alone and is not part of the tier-1 tests: a
run over one module takes minutes.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# operator node type -> (the pattern of its source text, its replacement)
_COMPARE = {
    ast.Lt: (r"<(?!=)", "<="),
    ast.LtE: (r"<=", "<"),
    ast.Gt: (r">(?!=)", ">="),
    ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="),
    ast.NotEq: (r"!=", "=="),
    ast.In: (r"\bin\b", "not in"),
    ast.NotIn: (r"\bnot\s+in\b", "in"),
    ast.Is: (r"\bis\b(?!\s+not\b)", "is not"),
    ast.IsNot: (r"\bis\s+not\b", "is"),
}
_BOOL = {ast.And: (r"\band\b", "or"), ast.Or: (r"\bor\b", "and")}
_ARITH = {
    ast.Add: (r"\+", "-"),
    ast.Sub: (r"-", "+"),
    ast.Mult: (r"\*(?!\*)", "/"),
    ast.Div: (r"/(?!/)", "*"),
}


class Mutant(NamedTuple):
    """One mutant: the line of its operator, the operator and its
    replacement, and the byte ranges of the source to replace, each with its
    new text."""

    line: int
    old: str
    new: str
    edits: list[tuple[int, int, str]]

    def apply(self, source: bytes) -> bytes:
        for start, end, text in sorted(self.edits, reverse=True):
            source = source[:start] + text.encode() + source[end:]
        return source


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of ``source``, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    def between(before: ast.AST, after: ast.AST, pattern: str, new: str):
        """The edit of the operator between two operand nodes, or None
        when the text there does not hold it once."""
        start = offset(before.end_lineno, before.end_col_offset)
        end = offset(after.lineno, after.col_offset)
        gap = source[start:end].decode()
        found = list(re.finditer(pattern, gap))
        if len(found) != 1:
            return None
        (m,) = found
        return start + len(gap[: m.start()].encode()), start + len(gap[: m.end()].encode()), new

    out: list[Mutant] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                pattern, new = _COMPARE[type(op)]
                edit = between(operands[i], operands[i + 1], pattern, new)
                if edit is not None:
                    old = source[edit[0] : edit[1]].decode()
                    out.append(Mutant(operands[i].end_lineno, old, new, [edit]))
        elif isinstance(node, ast.BoolOp):
            pattern, new = _BOOL[type(node.op)]
            edits = [
                between(left, right, pattern, new)
                for left, right in zip(node.values, node.values[1:])
            ]
            if None not in edits:
                old = "and" if isinstance(node.op, ast.And) else "or"
                out.append(Mutant(node.values[0].end_lineno, old, new, edits))
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            pattern, new = _ARITH[type(node.op)]
            edit = between(node.left, node.right, pattern, new)
            if edit is not None:
                old = source[edit[0] : edit[1]].decode()
                out.append(Mutant(node.left.end_lineno, old, new, [edit]))
    out.sort(key=lambda m: (m.line, m.edits))
    return out


def _passes(copy: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether pytest passes ``tests`` in ``copy`` within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    module, focused = argv[0], argv[1:]
    original = (ROOT / module).read_bytes()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"
            ),
        )
        target = copy / module
        began = time.perf_counter()
        if not _passes(copy, focused, None):
            print("the unmutated module fails its focused tests", file=sys.stderr)
            return 1
        timeout = 10 * (time.perf_counter() - began) + 10
        found = mutants(original)
        survivors = []
        for mutant in found:
            target.write_bytes(mutant.apply(original))
            if _passes(copy, focused, timeout) and _passes(copy, ["tests"], 10 * timeout):
                survivors.append(mutant)
                print(f"{module}:{mutant.line}: {mutant.old} -> {mutant.new}", flush=True)
    killed = len(found) - len(survivors)
    print(f"{module}: {killed}/{len(found)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
