"""Rule conditions compiled once into generated nested-loop joins.

A :class:`CompiledCondition` turns a condition (see :mod:`loophound.kernel`)
into Python source, one straight-line nest of ``for`` loops over the
per-predicate tuples of a state, and ``exec``-s it once, in the program that
runs it: a search compiles each action rule's precondition once, on the
rule's first grounding (see :class:`loophound.kernel.ActionRules`).  This is
the technique of Soufflé (Jordan, Scholz and Subotić, CAV 2016): compile
each Datalog rule instead of interpreting it per call.
:func:`compile_projection` goes one step further and compiles a whole set of
conditions that run together, a search's reductions, into one function that
binds each relation once and shares it across them, as multiple-query
optimization shares the scans of queries evaluated together (Sellis, TODS
1988).  A rule generates no code when it is built: it checks its condition
with :func:`plan`, the plan its compiled join follows, so the condition of
a rule that exists compiles.

* **Join order.**  A projection starts from a positive literal that binds
  the projected variable.  After that, the next literal is the one with the
  most constant or already-bound arguments, ties going by source order, as
  Leapfrog Triejoin (Veldhuizen, ICDT 2014) orders its variables by how
  bound they are.  Literal order in the source never changes a result.
* **Checks.**  Comparisons and negated literals run at the first loop level
  where all their variables are bound.  A literal whose arguments are all
  bound is a membership test on its predicate's group of the state; a
  negated literal with a wildcard scans its relation.
* **Entry points.**  :meth:`~CompiledCondition.bindings` lists every
  solution of an action rule's precondition, sorted by the values of the
  sorted variable names and deduplicated; the function that
  :func:`compile_projection` builds collects, per condition, the distinct
  values of one variable and leaves the inner loops as soon as a value is
  recorded.
* **Reads.**  Each is compiled for the relations it reads, as Soufflé
  compiles a rule.  The generated code indexes a state's groups only at
  the positions of the predicates the condition's literals name, negated
  or not; a precondition names no ``transaction``, so a
  :class:`CompiledCondition` is a function of those groups and its seed
  alone, and a caller may key a result on them (see
  :class:`loophound.kernel.ActionRules`).  A projection reads the
  transactions' rows too.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from .kernel import (
    GROUP,
    TRANSACTION_KINDS,
    TRANSACTION_PRED,
    WILDCARD,
    Comparison,
    Condition,
    KernelError,
    Literal,
    State,
    is_variable,
)

class CompiledCondition:
    """One condition over a state's groups compiled into a generated join:
    an action rule's precondition, which names no ``transaction``.

    Every seed passed to :meth:`bindings` binds exactly the variables in
    ``bound``.  Raises :class:`KernelError` when a comparison or negated
    literal uses a variable that neither ``bound`` nor a positive literal
    binds.

    The generated code indexes a state's groups only at the positions of
    the predicates the condition's literals name, negated or not.
    """

    def __init__(self, condition: Condition, bound: Iterable[str] = ()) -> None:
        entry = frozenset(bound)
        names = {v for item in condition for v in item.variables()} | entry
        # solution rows hold one value per variable, in this order
        self.variables: tuple[str, ...] = tuple(sorted(names))
        local = {v: f"v{i}" for i, v in enumerate(self.variables)}
        order, placed = plan(condition, entry)
        relations: dict[str, str] = {}
        for lit in condition:
            if isinstance(lit, Literal) and lit.predicate not in relations:
                relations[lit.predicate] = f"r{len(relations)}"
        lines = ["def _solve(groups, seed):"]
        for v in sorted(entry):
            lines.append(f"    {local[v]} = seed[{v!r}]")
        for pred, rel in relations.items():
            lines.append(f"    {rel} = groups[{GROUP[pred]}]")
        lines.append("    out = []")

        def rename(lit: Literal) -> Literal:
            return Literal(relations[lit.predicate], lit.args, lit.negated)

        indent, _ = _emit_join(
            lines, [rename(lit) for lit in order], _rename_checks(placed, rename),
            entry, local, "    ", "return out",
        )
        lines.append(f"{indent}out.append({_tuple([local[v] for v in self.variables])})")
        lines.append("    return out")
        self._solve = _compile("\n".join(lines) + "\n", "_solve", {})

    def bindings(self, state: State, seed: Mapping[str, str]) -> list[tuple[str, ...]]:
        """Every solution as a row over :attr:`variables`, sorted and distinct."""
        return sorted(set(self._solve(state.groups, seed)))


# per transaction kind, its position in the rows a projection is handed
_KIND = {kind: i for i, kind in enumerate(TRANSACTION_KINDS)}

# (a state's groups, per kind its transactions' (sender, receiver) pairs)
# -> value of the target -> positions of the conditions that hold for it
Projection = Callable[[tuple, Sequence], dict[str, tuple[int, ...]]]


def compile_projection(conditions: Sequence[Condition], target: str) -> Projection:
    """One generated function for all ``conditions``: given a state's groups
    and, per kind of :data:`~loophound.kernel.TRANSACTION_KINDS`, the
    (sender, receiver) pairs of its transactions, it maps each value of
    ``target`` for which some condition has a solution to the positions of
    those conditions in ``conditions``, in order.

    The function binds each relation the conditions name once, for all of
    them: the state's groups by position, and a transaction literal of a
    constant kind ranges over that kind's pairs (one of a variable kind
    over every kind's).  Each condition then runs as its own join, starting
    from a positive literal that binds ``target``, and leaves its inner
    loops as soon as a value is recorded.  A condition is skipped without
    a loop when one of its positive literals ranges over an empty relation,
    or a check on constants alone fails.  Raises :class:`KernelError` when a
    check uses a variable no positive literal binds, or no positive literal
    binds ``target``.
    """
    relations: dict[str, str] = {}  # source expression -> local name

    def relation(lit: Literal) -> Literal:
        """``lit`` over the local name of the relation it ranges over."""
        if lit.predicate != TRANSACTION_PRED:
            source, args = f"groups[{GROUP[lit.predicate]}]", lit.args
        elif is_variable(lit.args[0]) or lit.args[0] == WILDCARD:
            source, args = "_every_kind(rows)", lit.args
        elif lit.args[0] in _KIND:
            source, args = f"rows[{_KIND[lit.args[0]]}]", lit.args[1:]
        else:  # a kind no transaction has
            source, args = "()", lit.args[1:]
        name = relations.setdefault(source, f"r{len(relations)}")
        return Literal(name, args, lit.negated)

    blocks: list[str] = []
    for position, condition in enumerate(conditions):
        names = sorted({v for item in condition for v in item.variables()})
        local = {v: f"v{i}" for i, v in enumerate(names)}
        order, placed = plan(condition, frozenset(), target)
        order = [relation(lit) for lit in order]
        placed = _rename_checks(placed, relation)
        # checks on constants alone, and an empty relation a positive literal
        # ranges over, rule the condition out before any loop
        guard = sorted({lit.predicate for lit in order})
        guard += [f"not ({_fails(item, local)})" for item in placed.pop(-1, ())]
        lines = [f"    if {' and '.join(guard)}:", "        found = set()"]
        indent, loops = _emit_join(
            lines, order, placed, frozenset(), local, "        ", "continue",
            skip=f"if {local[target]} in found: continue",
        )
        lines.append(f"{indent}found.add({local[target]})")
        if len(loops) > 1:
            lines.append(f"{indent}break")
            # a recorded value leaves every loop inside the first one
            for outer in reversed(loops[2:]):
                lines += [f"{outer}else:", f"{outer}    continue", f"{outer}break"]
        lines += [
            "        for value in found:",
            f"            out[value] = out.get(value, ()) + ({position},)",
        ]
        blocks.append("\n".join(lines))
    head = ["def _project(groups, rows):"]
    head += [f"    {name} = {source}" for source, name in relations.items()]
    head.append("    out = {}")
    source = "\n".join(head + blocks + ["    return out"]) + "\n"
    return _compile(source, "_project", {"_every_kind": _every_kind})


def _every_kind(rows: Sequence[Sequence[tuple[str, str]]]) -> list[tuple[str, str, str]]:
    """(kind, sender, receiver) of every transaction, kind by kind."""
    return [(kind, *pair) for kind, pairs in zip(TRANSACTION_KINDS, rows) for pair in pairs]


def _compile(source: str, name: str, namespace: dict) -> Callable:
    """The function ``name`` that ``source`` defines.  The function is taken
    out of its namespace, so the two form no reference cycle."""
    exec(compile(source, "<condition>", "exec"), namespace)
    return namespace.pop(name)


# CPython compiles at most 20 statically nested blocks into one function
# (CO_MAXBLOCKS), and each loop of a generated join is one
MAX_LOOPS = 20


def plan(
    condition: Condition, entry: frozenset[str], target: Optional[str] = None
) -> tuple[list[Literal], dict[int, list]]:
    """The join order of the condition's positive literals, and its checks
    by the step after which each runs (-1: on entry): the plan the
    generated join follows, with ``entry`` bound on entry.

    With a ``target`` the join starts from a positive literal that binds it.
    Raises :class:`KernelError` when a check uses a variable that neither
    ``entry`` nor a positive literal binds, when no positive literal binds
    ``target``, or when the join would nest more than :data:`MAX_LOOPS`
    loops, one per literal that binds a variable.  A rule checks its
    condition with the plan its join follows, so a rule that is built
    compiles.
    """
    positives = [it for it in condition if isinstance(it, Literal) and not it.negated]
    checks = [it for it in condition if not (isinstance(it, Literal) and not it.negated)]
    bindable = set(entry).union(*(lit.variables() for lit in positives))
    for item in checks:
        for v in item.variables():
            if v not in bindable:
                kind = "comparison" if isinstance(item, Comparison) else "negated literal"
                raise KernelError(f"unbound variable {v!r} in {kind} {item}")

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

    # a literal loops when it binds a variable (see _emit_join)
    known, loops = set(entry), 0
    for lit in order:
        loops += not known.issuperset(lit.variables())
        known.update(lit.variables())
    if loops > MAX_LOOPS:
        raise KernelError(
            f"condition too large to compile: {loops} nested loops, at most {MAX_LOOPS}"
        )

    # each check runs after the first step (-1: on entry) that binds its variables
    placed: dict[int, list] = {}
    for item in checks:
        need = set(item.variables())
        step, known = -1, set(entry)
        while not need <= known:
            step += 1
            known.update(order[step].variables())
        placed.setdefault(step, []).append(item)
    return order, placed


def _rename_checks(
    placed: dict[int, list], rename: Callable[[Literal], Literal]
) -> dict[int, list]:
    """``placed`` with each negated literal over its relation's local name."""
    return {
        step: [item if isinstance(item, Comparison) else rename(item) for item in items]
        for step, items in placed.items()
    }


def _tuple(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _term(t: str, local: Mapping[str, str]) -> str:
    return local[t] if is_variable(t) else repr(t)


def _holds(lit: Literal, local: Mapping[str, str]) -> str:
    """Expression true iff the fully bound ``lit`` (wildcards aside) matches
    a row of the relation whose local name is its predicate."""
    rel = lit.predicate
    if WILDCARD not in lit.args:
        # a state's group holds a few rows: scanning the tuple beats bisect
        return f"{_tuple([_term(a, local) for a in lit.args])} in {rel}"
    unpack = ["_" if a == WILDCARD else f"_w{i}" for i, a in enumerate(lit.args)]
    tests = [f"_w{i} == {_term(a, local)}" for i, a in enumerate(lit.args) if a != WILDCARD]
    if not tests:
        return f"bool({rel})"
    return f"any({' and '.join(tests)} for {', '.join(unpack)}, in {rel})"


def _fails(item, local: Mapping[str, str]) -> str:
    """Expression true iff the fully bound check ``item`` fails."""
    if isinstance(item, Comparison):
        op = "!=" if item.op == "==" else "=="  # the test that fails it
        return f"{_term(item.left, local)} {op} {_term(item.right, local)}"
    return _holds(item, local)


def _emit_join(
    lines: list[str],
    order: Sequence[Literal],
    placed: Mapping[int, list],
    entry: frozenset[str],
    local: Mapping[str, str],
    indent: str,
    fail: str,
    skip: Optional[str] = None,
) -> tuple[str, list[str]]:
    """Append to ``lines`` the loops of a join over ``order``, positive
    literals without a wildcard, each literal's predicate the local name of
    its relation, with the checks of ``placed`` after their steps; a check
    that fails runs ``fail`` outside every loop and ``continue`` inside.
    ``skip``, when given, is the first statement of the outermost loop.
    Returns the indentation of the innermost body and the indentation of
    each loop, outermost first."""
    loops: list[str] = []

    def emit_checks(step: int) -> None:
        for item in placed.get(step, ()):
            lines.append(f"{indent}if {_fails(item, local)}: {fail}")

    emit_checks(-1)
    known = set(entry)
    for step, lit in enumerate(order):
        if all(a in known for a in lit.variables()):
            lines.append(f"{indent}if not {_holds(lit, local)}: {fail}")
        else:
            unpack, tests = [], []
            for i, a in enumerate(lit.args):
                if is_variable(a) and a not in known:
                    unpack.append(local[a])
                    known.add(a)
                else:
                    unpack.append(f"_{step}_{i}")
                    tests.append(f"_{step}_{i} != {_term(a, local)}")
            lines.append(f"{indent}for {', '.join(unpack)}, in {lit.predicate}:")
            loops.append(indent)
            indent, fail = indent + "    ", "continue"
            if tests:
                lines.append(f"{indent}if {' or '.join(tests)}: continue")
            if skip is not None and step == 0:
                lines.append(f"{indent}{skip}")
        emit_checks(step)
    return indent, loops
