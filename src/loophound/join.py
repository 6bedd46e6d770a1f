"""Rule conditions compiled once into generated nested-loop joins.

A :class:`CompiledCondition` turns a condition (see :mod:`loophound.kernel`)
into Python source, one straight-line nest of ``for`` loops over the
per-predicate tuples of a state, and ``exec``-s it once, when the rule that
owns the condition is built.  This is the technique of Soufflé (Jordan,
Scholz and Subotić, CAV 2016): compile each Datalog rule instead of
interpreting it per call.

* **Join order.**  A projection starts from the positive literal that binds
  the projected variable.  After that, the next literal is the one with the
  most constant or already-bound arguments, ties going by source order, as
  Leapfrog Triejoin (Veldhuizen, ICDT 2014) orders its variables by how
  bound they are.  Literal order in the source never changes a result.
* **Checks.**  Comparisons and negated literals run at the first loop level
  where all their variables are bound.  A literal whose arguments are all
  bound is a membership test on its predicate's group of the state; a
  negated literal with a wildcard scans its relation.
* **Entry points.**  :meth:`~CompiledCondition.bindings` lists every
  solution, sorted by the values of the sorted variable names and
  deduplicated; :meth:`~CompiledCondition.exists` stops at the first one;
  :meth:`~CompiledCondition.project` collects the distinct values of one
  variable and leaves the inner loops as soon as a value is recorded.
* **Reads.**  :attr:`~CompiledCondition.reads` lists the positions of the
  state groups the generated code indexes, one per predicate of the
  condition's literals.  Every entry point is a function of those groups,
  the seed and the extra relations alone, so a caller may key a result on
  the groups at ``reads`` (see :class:`loophound.kernel.ActionRules`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .kernel import (
    GROUP,
    WILDCARD,
    Comparison,
    Condition,
    KernelError,
    Literal,
    State,
    is_variable,
)

# ground tuples of predicates that do not live in the state (transactions)
Relations = Mapping[str, Sequence[tuple[str, ...]]]


def _relation(extra: Optional[Relations], predicate: str) -> Sequence[tuple[str, ...]]:
    if extra is None or predicate not in extra:
        raise KernelError(f"unknown predicate in condition: {predicate!r}")
    return extra[predicate]


class CompiledCondition:
    """One condition compiled into generated joins.

    Every seed passed to :meth:`bindings` and :meth:`exists` binds exactly
    the variables in ``bound``.  :meth:`project` accepts the variables in
    ``project`` and runs with nothing bound.  Raises :class:`KernelError`
    when a comparison or negated literal uses a variable that neither
    ``bound`` nor a positive literal binds.

    ``reads`` holds, sorted, the position in a state's groups of each
    predicate that a literal of the condition names, negated or not: the
    generated code indexes the groups at these positions and nowhere else,
    so two states whose groups agree there give every entry point the same
    result for the same seed and extra relations.
    """

    def __init__(
        self,
        condition: Condition,
        bound: Iterable[str] = (),
        project: Iterable[str] = (),
    ) -> None:
        entry = frozenset(bound)
        self.reads: tuple[int, ...] = tuple(
            sorted(
                {
                    GROUP[item.predicate]
                    for item in condition
                    if isinstance(item, Literal) and item.predicate in GROUP
                }
            )
        )
        names = {v for item in condition for v in item.variables()} | entry
        # solution rows hold one value per variable, in this order
        self.variables: tuple[str, ...] = tuple(sorted(names))
        local = {v: f"v{i}" for i, v in enumerate(self.variables)}
        targets = tuple(project)
        sources = [_generate("_solve", condition, entry, local, self.variables)]
        sources += [
            _generate(f"_project{i}", condition, frozenset(), local, self.variables, var)
            for i, var in enumerate(targets)
        ]
        namespace = {"_relation": _relation}
        try:
            exec(compile("\n".join(sources), "<condition>", "exec"), namespace)
        except SyntaxError as exc:  # more nested loops than Python allows
            raise KernelError(f"condition too large to compile: {exc.msg}") from exc
        self._solve = namespace["_solve"]
        self._project = {var: namespace[f"_project{i}"] for i, var in enumerate(targets)}

    def bindings(
        self, state: State, seed: Mapping[str, str], extra: Optional[Relations] = None
    ) -> list[tuple[str, ...]]:
        """Every solution as a row over :attr:`variables`, sorted and distinct."""
        return sorted(set(self._solve(state.groups, extra, seed, False)))

    def exists(
        self, state: State, seed: Mapping[str, str], extra: Optional[Relations] = None
    ) -> bool:
        """True iff the condition has a solution extending ``seed``."""
        return bool(self._solve(state.groups, extra, seed, True))

    def project(
        self, state: State, var: str, extra: Optional[Relations] = None
    ) -> set[str]:
        """Distinct values of ``var`` over all solutions, with nothing seeded."""
        return self._project[var](state.groups, extra, None, False)


def _generate(
    fname: str,
    condition: Condition,
    entry: frozenset[str],
    local: Mapping[str, str],
    variables: Sequence[str],
    target: Optional[str] = None,
) -> str:
    """Source of ``fname(groups, extra, seed, first)``.

    Without a ``target`` the function lists solution rows over
    ``variables``, stopping after the first when ``first`` is true; with one
    it returns the set of the target's values.
    """
    positives = [it for it in condition if isinstance(it, Literal) and not it.negated]
    checks = [it for it in condition if not (isinstance(it, Literal) and not it.negated)]
    bindable = set(entry).union(*(lit.variables() for lit in positives))
    for item in checks:
        for v in item.variables():
            if v not in bindable:
                kind = "comparison" if isinstance(item, Comparison) else "negated literal"
                raise KernelError(f"unbound variable {v!r} in {kind} {item}")

    # join order
    bound = set(entry)

    def score(lit: Literal) -> int:
        return sum(
            1 for a in lit.args if a != WILDCARD and (not is_variable(a) or a in bound)
        )

    rest = list(positives)
    order: list[Literal] = []
    if target is not None:
        binders = [lit for lit in rest if target in lit.args]
        if not binders:
            raise KernelError(f"no positive literal binds projected variable {target!r}")
        order.append(max(binders, key=score))
        rest.remove(order[0])
        bound.update(order[0].variables())
    while rest:
        pick = max(rest, key=score)  # first of the best: ties go by source order
        rest.remove(pick)
        order.append(pick)
        bound.update(pick.variables())

    # each check runs after the first step (-1: on entry) that binds its variables
    placed: dict[int, list] = {}
    for item in checks:
        need = set(item.variables())
        step, known = -1, set(entry)
        while not need <= known:
            step += 1
            known.update(order[step].variables())
        placed.setdefault(step, []).append(item)

    def term(t: str) -> str:
        return local[t] if is_variable(t) else repr(t)

    def tup(items: Sequence[str]) -> str:
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    relations: dict[str, str] = {}
    for lit in condition:
        if isinstance(lit, Literal) and lit.predicate not in relations:
            relations[lit.predicate] = f"r{len(relations)}"

    def holds(lit: Literal) -> str:
        """Expression true iff the fully bound ``lit`` (wildcards aside) matches."""
        rel = relations[lit.predicate]
        if WILDCARD not in lit.args:
            # a state's group holds a few rows: scanning the tuple beats bisect
            return f"{tup([term(a) for a in lit.args])} in {rel}"
        unpack = ["_" if a == WILDCARD else f"_w{i}" for i, a in enumerate(lit.args)]
        tests = [f"_w{i} == {term(a)}" for i, a in enumerate(lit.args) if a != WILDCARD]
        if not tests:
            return f"bool({rel})"
        return f"any({' and '.join(tests)} for {', '.join(unpack)}, in {rel})"

    lines = [f"def {fname}(groups, extra, seed, first):"]
    for v in sorted(entry):
        lines.append(f"    {local[v]} = seed[{v!r}]")
    for pred, rel in relations.items():
        source = f"groups[{GROUP[pred]}]" if pred in GROUP else f"_relation(extra, {pred!r})"
        lines.append(f"    {rel} = {source}")
    lines.append("    out = []" if target is None else "    out = set()")

    indent, fail = "    ", "return out"
    loops: list[str] = []  # indentation of each open for statement

    def emit_checks(step: int) -> None:
        for item in placed.get(step, ()):
            if isinstance(item, Comparison):
                op = "!=" if item.op == "==" else "=="  # the test that fails it
                left, right = term(item.left), term(item.right)
                lines.append(f"{indent}if {left} {op} {right}: {fail}")
            else:
                lines.append(f"{indent}if {holds(item)}: {fail}")

    emit_checks(-1)
    known = set(entry)
    for step, lit in enumerate(order):
        if all(a in known for a in lit.variables()):
            lines.append(f"{indent}if not {holds(lit)}: {fail}")
        else:
            unpack, tests = [], []
            for i, a in enumerate(lit.args):
                if is_variable(a) and a not in known:
                    unpack.append(local[a])
                    known.add(a)
                elif a == WILDCARD:
                    unpack.append("_")
                else:
                    unpack.append(f"_{step}_{i}")
                    tests.append(f"_{step}_{i} != {term(a)}")
            lines.append(f"{indent}for {', '.join(unpack)}, in {relations[lit.predicate]}:")
            loops.append(indent)
            indent, fail = indent + "    ", "continue"
            if tests:
                lines.append(f"{indent}if {' or '.join(tests)}: continue")
            if target is not None and step == 0:
                lines.append(f"{indent}if {local[target]} in out: continue")
        emit_checks(step)

    if target is None:
        lines.append(f"{indent}out.append({tup([local[v] for v in variables])})")
        lines.append(f"{indent}if first: return out")
    else:
        lines.append(f"{indent}out.add({local[target]})")
        if len(loops) > 1:
            lines.append(f"{indent}break")
            # a recorded value leaves every loop inside the first one
            for outer in reversed(loops[2:]):
                lines += [f"{outer}else:", f"{outer}    continue", f"{outer}break"]
    lines.append("    return out")
    return "\n".join(lines) + "\n"
