"""Transition-system kernel: ground facts, states, action grounding and application.

A state is a finite set of ground facts over a closed predicate vocabulary.
Action rules (parsed from the rule DSL, see :mod:`loophound.dsl`) describe
preconditions as conjunctions of literals and comparisons, and effects as
fact additions/deletions.  The kernel grounds rules against a state, checks
applicability and produces successor states.

A state holds its facts once, as one tuple of per-predicate groups in
:data:`PREDICATES` order, each the sorted, distinct argument tuples of that
predicate's facts.  Every condition reads the groups by position; the group
tuple is the state's deduplication key; readers that want facts iterate the
groups.  The invariants are checked on the groups when a state is built: one
owner per IP, one ``based`` and one ``managed`` country per company, one
licensor per (renter, IP) and acyclic licensing per IP.

Each action rule compiles its effects, when it is built, into per-group
templates of deleted and added rows over the values of its effect
variables.  Applying a grounded action fills them and builds the successor
from its parent's groups, the delta idea of incremental view maintenance
(Gupta, Mumick and Subrahmanian, SIGMOD 1993): groups the effects do not
touch are the parent's own objects, so a successor costs one tuple of
groups plus its edited groups, the structural sharing of persistent data
structures (Driscoll, Sarnak, Sleator and Tarjan, JCSS 1989).  The successor
is fully re-validated, exactly as a state built from its facts.

An action rule checks its own well-formedness when it is built, by the
parser or by library code: known action name, distinct parameters, at most
one ``fresh`` parameter, known predicates at their arity, no transaction
pattern, wildcards only in negated literals and never in effects, and effect
variables bound by a parameter or a positive literal.  It raises one
:class:`KernelError` naming every problem found, so a malformed rule never
exists and applying an action does not check its effects again.

Variables follow the Prolog convention: identifiers starting with an
uppercase letter are variables, everything else is a constant.  ``_`` is an
anonymous wildcard, allowed only inside negated literals.

Conditions are evaluated by :mod:`loophound.join`.  Each action rule
compiles its precondition once, when it is built: literal order in the
source never changes a result, the join order follows bound arguments, and
comparisons and negations run as soon as their variables are bound.
Grounding lists a rule's actions in the product order of its free
parameters' domains, then by the values of the sorted variable names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .join import CompiledCondition

# ============================================================================
# Predicate vocabulary
# ============================================================================

# predicate name -> (arity, argument types)
PREDICATES: dict[str, tuple[str, ...]] = {
    "based": ("company", "country"),
    "managed": ("company", "country"),
    "isChildOf": ("company", "company"),
    "ownsIP": ("company", "ip"),
    "rentsIP": ("company", "company", "ip"),
    "exists": ("company",),
}

# transaction-pattern predicate usable in reduction conditions only:
# transaction(kind, sender, receiver)
TRANSACTION_PRED = "transaction"
TRANSACTION_KINDS = ("commercial", "royalty", "transfer")

ACTION_NAMES = ("addChild", "rentIP", "transferIP")

WILDCARD = "_"


def is_variable(term: str) -> bool:
    return bool(term) and term != WILDCARD and (term[0].isupper())


def is_constant(term: str) -> bool:
    return bool(term) and term != WILDCARD and not term[0].isupper()


class KernelError(Exception):
    """Contract violation inside the kernel (bad fact, inapplicable action...)."""


# ============================================================================
# Facts and states
# ============================================================================


class Fact(NamedTuple):
    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"


def make_fact(predicate: str, args: Sequence[str]) -> Fact:
    """Build a validated ground fact."""
    if predicate not in PREDICATES:
        raise KernelError(f"unknown predicate: {predicate!r}")
    arity = len(PREDICATES[predicate])
    if len(args) != arity:
        raise KernelError(
            f"{predicate} expects {arity} argument(s), got {len(args)}"
        )
    for a in args:
        if not is_constant(a):
            raise KernelError(f"fact argument must be a ground constant: {a!r}")
    return Fact(predicate, tuple(args))


# position of each predicate's group in a state's groups
GROUP: dict[str, int] = {p: i for i, p in enumerate(PREDICATES)}

# (predicate, position) pairs in predicate-name order: facts in sorted order
_BY_NAME = tuple(sorted(GROUP.items()))

# the argument tuples of one predicate's facts, sorted and distinct
Rows = tuple[tuple[str, ...], ...]


@dataclass(frozen=True, slots=True)
class State:
    """Immutable set of ground facts plus bookkeeping for the one-shot transfer.

    ``groups`` holds, per predicate in :data:`PREDICATES` order, the sorted,
    distinct argument tuples of its facts.  The groups are the state's only
    copy of its facts: they are its deduplication key, and with the step
    count and the transfer flag they define its equality.  The state's
    invariants are checked once, when it is built.
    """

    groups: tuple[Rows, ...]
    step_count: int = 0
    transfer_used: bool = False

    def __post_init__(self) -> None:
        if type(self.groups) is not tuple or len(self.groups) != len(PREDICATES):
            raise KernelError(f"a state holds one group per predicate: {self.groups!r}")
        for (predicate, signature), rows in zip(PREDICATES.items(), self.groups):
            if type(rows) is not tuple:
                raise KernelError(f"group of {predicate} is not a tuple: {rows!r}")
            for row in rows:
                if len(row) != len(signature):
                    raise KernelError(f"bad arity in state fact: {Fact(predicate, row)}")
            for row, following in zip(rows, rows[1:]):
                if not row < following:
                    raise KernelError(f"group of {predicate} is not sorted and distinct")
        _validate_index(self.groups)

    @classmethod
    def from_facts(
        cls, facts: Iterable[Fact], step_count: int = 0, transfer_used: bool = False
    ) -> State:
        """The state holding exactly ``facts``, duplicates merged."""
        grouped: list[list[tuple[str, ...]]] = [[] for _ in PREDICATES]
        for f in set(facts):
            position = GROUP.get(f.predicate)
            if position is None:
                raise KernelError(f"unknown predicate in state: {f.predicate!r}")
            grouped[position].append(f.args)
        return cls(tuple(tuple(sorted(rows)) for rows in grouped), step_count, transfer_used)

    @staticmethod
    def _successor(
        groups: tuple[Rows, ...], step_count: int, transfer_used: bool
    ) -> State:
        """A state from groups built sorted and distinct by :func:`apply_action`,
        after the same full invariant check as a state built from its facts."""
        _validate_index(groups)
        child = object.__new__(State)
        object.__setattr__(child, "groups", groups)
        object.__setattr__(child, "step_count", step_count)
        object.__setattr__(child, "transfer_used", transfer_used)
        return child

    def rows(self, predicate: str) -> Rows:
        """The argument tuples of the state's ``predicate`` facts, sorted."""
        return self.groups[GROUP[predicate]]

    def facts(self) -> Iterator[Fact]:
        """Every fact, sorted by predicate name, then arguments."""
        for predicate, position in _BY_NAME:
            for row in self.groups[position]:
                yield Fact(predicate, row)

    def companies(self) -> list[str]:
        """Existing company ids, sorted."""
        return [args[0] for args in self.groups[GROUP["exists"]]]

    def key(self) -> tuple[Rows, ...]:
        """Deduplication key: the groups, one-to-one with the fact set."""
        return self.groups

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.facts()) + "}"


def _validate_index(groups: tuple[Rows, ...]) -> None:
    """Check the state invariants on a state's groups, each sorted and distinct."""
    owners: set[str] = set()
    for _, ip in groups[GROUP["ownsIP"]]:
        if ip in owners:
            raise KernelError(f"ip {ip!r} has more than one owner")
        owners.add(ip)
    for predicate, where in (("based", "based in"), ("managed", "managed from")):
        rows = groups[GROUP[predicate]]
        # sorted rows: a company with two countries has two adjacent rows
        for (company, _), (following, _) in zip(rows, rows[1:]):
            if company == following:
                raise KernelError(
                    f"company {company!r} is {where} multiple countries"
                )
    licensor_of: dict[tuple[str, str], str] = {}
    for licensor, renter, ip in groups[GROUP["rentsIP"]]:
        if (renter, ip) in licensor_of:
            raise KernelError(
                f"company {renter!r} rents ip {ip!r} from more than one licensor"
            )
        licensor_of[(renter, ip)] = licensor
    # one licensor per (renter, ip): a renter's licensor chain for an ip is
    # acyclic exactly when it ends within as many steps as there are edges
    for renter, ip in licensor_of:
        company: Optional[str] = renter
        for _ in range(len(licensor_of) + 1):
            company = licensor_of.get((company, ip))
            if company is None:
                break
        else:
            raise KernelError(f"rentsIP edges form a cycle for ip {ip!r}")


def initial_state(
    facts: Iterable[Fact], declared_companies: Iterable[str]
) -> State:
    """Initial state: declared facts plus exists() for every declared company."""
    full = set(facts)
    for c in declared_companies:
        full.add(Fact("exists", (c,)))
    return State.from_facts(full)


# ============================================================================
# Condition language (shared with the taxation module)
# ============================================================================


@dataclass(frozen=True)
class Literal:
    predicate: str
    args: tuple[str, ...]
    negated: bool = False

    def variables(self) -> list[str]:
        return [a for a in self.args if is_variable(a)]

    def __str__(self) -> str:
        body = f"{self.predicate}({', '.join(self.args)})"
        return f"not {body}" if self.negated else body


@dataclass(frozen=True)
class Comparison:
    left: str
    op: str  # "==" or "!="
    right: str

    def variables(self) -> list[str]:
        return [t for t in (self.left, self.right) if is_variable(t)]

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


ConditionItem = Literal | Comparison
Condition = tuple[ConditionItem, ...]


def _vocabulary_problems(lit: Literal) -> list[str]:
    """Unknown predicate or wrong arity of a literal over the state vocabulary."""
    signature = PREDICATES.get(lit.predicate)
    if signature is None:
        return [f"unknown predicate {lit.predicate!r} in {lit}"]
    if len(lit.args) != len(signature):
        return [f"{lit.predicate} expects {len(signature)} argument(s) in {lit}"]
    return []


def condition_problems(condition: Condition, transactions: bool = False) -> list[str]:
    """Every problem of a rule condition's literals.

    Each literal uses a known predicate with its arity, and wildcards appear
    only in negated literals.  ``transaction(kind, sender, receiver)``
    patterns are admitted only when ``transactions`` is true (reduction
    conditions); a constant kind must be one of :data:`TRANSACTION_KINDS`.
    """
    problems: list[str] = []
    for lit in condition:
        if not isinstance(lit, Literal):
            continue
        if lit.predicate != TRANSACTION_PRED:
            problems += _vocabulary_problems(lit)
        elif not transactions:
            problems.append(
                f"transaction patterns are only allowed in reduction conditions: {lit}"
            )
        elif len(lit.args) != 3:
            problems.append(f"transaction pattern takes (kind, sender, receiver): {lit}")
        elif is_constant(lit.args[0]) and lit.args[0] not in TRANSACTION_KINDS:
            problems.append(
                f"transaction kind must be one of {TRANSACTION_KINDS}: {lit}"
            )
        if not lit.negated and WILDCARD in lit.args:
            problems.append(f"wildcards are only allowed in negated literals: {lit}")
    return problems


# ============================================================================
# Action rules and grounding
# ============================================================================


@dataclass(frozen=True)
class ActionRule:
    name: str  # one of ACTION_NAMES
    legal_ref: str
    params: tuple[str, ...]
    fresh_params: frozenset[str]  # bound to the lowest unused pool id
    precondition: Condition
    add_effects: tuple[Literal, ...]
    del_effects: tuple[Literal, ...]
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    # parameters no positive literal binds: grounding enumerates the domain
    # of each one's entity type
    free_params: tuple[str, ...] = field(init=False, repr=False, compare=False)
    free_types: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # precondition compiled for grounding (fresh and free parameters seeded)
    # and for checking a grounded action (every parameter seeded)
    ground_join: CompiledCondition = field(init=False, repr=False, compare=False)
    check_join: CompiledCondition = field(init=False, repr=False, compare=False)
    # effects compiled for applying a grounded action: the variables whose
    # values fill effect arguments, the constants of the effects, and per
    # touched group (position, deleted rows, added rows), each row a tuple of
    # indices into the variables' values followed by the constants
    effect_variables: tuple[str, ...] = field(init=False, repr=False, compare=False)
    effect_constants: tuple[str, ...] = field(init=False, repr=False, compare=False)
    delta: tuple[
        tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]], ...
    ] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from .join import CompiledCondition  # join builds on this module

        positive = {
            v
            for it in self.precondition
            if isinstance(it, Literal) and not it.negated
            for v in it.variables()
        }
        problems = self._problems(positive)
        if problems:
            raise KernelError(f"{self.name}/{self.legal_ref}: " + "; ".join(problems))
        free = tuple(
            p for p in self.params if p not in self.fresh_params and p not in positive
        )
        types = self.inferred_types()
        for p in free:
            if p not in types:
                raise KernelError(
                    f"cannot infer a domain for parameter {p!r} in rule {self.key()}"
                )
        object.__setattr__(self, "free_params", free)
        object.__setattr__(self, "free_types", tuple(types[p] for p in free))
        object.__setattr__(
            self,
            "ground_join",
            CompiledCondition(self.precondition, bound=self.fresh_params | set(free)),
        )
        object.__setattr__(
            self, "check_join", CompiledCondition(self.precondition, bound=self.params)
        )
        self._compile_effects()

    def _compile_effects(self) -> None:
        """Compile the effects into per-group row templates (see ``delta``)."""
        effects = self.del_effects + self.add_effects
        variables = sorted({v for lit in effects for v in lit.variables()})
        constants = sorted({a for lit in effects for a in lit.args if not is_variable(a)})
        slot = {term: i for i, term in enumerate(variables + constants)}
        edits: dict[int, tuple[list, list]] = {}
        for lits, side in ((self.del_effects, 0), (self.add_effects, 1)):
            for lit in lits:
                rows = edits.setdefault(GROUP[lit.predicate], ([], []))[side]
                rows.append(tuple(slot[a] for a in lit.args))
        object.__setattr__(self, "effect_variables", tuple(variables))
        object.__setattr__(self, "effect_constants", tuple(constants))
        object.__setattr__(
            self,
            "delta",
            tuple(
                (position, tuple(deleted), tuple(added))
                for position, (deleted, added) in sorted(edits.items())
            ),
        )

    def _problems(self, positive: set[str]) -> list[str]:
        """Every shape problem, given the variables positive literals bind."""
        problems: list[str] = []
        if self.name not in ACTION_NAMES:
            problems.append(f"action name must be one of {ACTION_NAMES}")
        if len(set(self.params)) != len(self.params):
            problems.append("duplicate parameter names")
        if len(self.fresh_params) > 1:
            problems.append("at most one fresh parameter is allowed")
        problems += condition_problems(self.precondition)
        bound = positive.union(self.params)
        for lit in self.add_effects + self.del_effects:
            problems += _vocabulary_problems(lit)
            if WILDCARD in lit.args:
                problems.append(f"wildcard in effect literal {lit}")
            problems += [
                f"effect variable {v!r} in {lit} is not bound by parameters "
                "or preconditions"
                for v in lit.variables()
                if v not in bound
            ]
        return problems

    def key(self) -> tuple[str, str]:
        return (self.name, self.legal_ref)

    def inferred_types(self) -> dict[str, str]:
        """Variable -> entity type, inferred from literal positions."""
        types: dict[str, str] = {}
        literals = itertools.chain(
            self.add_effects,
            self.del_effects,
            (it for it in self.precondition if isinstance(it, Literal)),
        )
        for lit in literals:
            for arg, ty in zip(lit.args, PREDICATES[lit.predicate]):
                if is_variable(arg):
                    prev = types.get(arg)
                    if prev is not None and prev != ty:
                        raise KernelError(
                            f"variable {arg!r} used with conflicting types "
                            f"{prev!r} and {ty!r} in rule {self.key()}"
                        )
                    types[arg] = ty
        return types


class GroundedAction(NamedTuple):
    name: str
    legal_ref: str
    binding: tuple[tuple[str, str], ...]  # sorted (var, value) pairs

    def as_dict(self) -> dict[str, str]:
        return dict(self.binding)

    def __str__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.binding)
        return f"{self.name}[{self.legal_ref}]({args})"


@dataclass(frozen=True)
class Domains:
    """Entity domains used to ground free rule parameters."""

    companies: tuple[str, ...]  # declared companies plus the unused-id pool
    countries: tuple[str, ...]
    ips: tuple[str, ...]

    def for_type(self, ty: str) -> tuple[str, ...]:
        if ty == "company":
            return self.companies
        if ty == "country":
            return self.countries
        if ty == "ip":
            return self.ips
        raise KernelError(f"unknown entity type: {ty!r}")


class ActionRules:
    """A ruleset's action rules, sorted by key, with a key -> rule map.

    Build it once per search and pass it to :func:`applicable_actions` and
    :func:`apply_action`; given a plain sequence of rules, each call builds
    its own.
    """

    def __init__(self, rules: Iterable[ActionRule]) -> None:
        self.ordered: tuple[ActionRule, ...] = tuple(sorted(rules, key=ActionRule.key))
        self.by_key: dict[tuple[str, str], ActionRule] = {}
        for rule in self.ordered:  # a repeated key finds the first rule
            self.by_key.setdefault(rule.key(), rule)


def _action_rules(rules: ActionRules | Iterable[ActionRule]) -> ActionRules:
    return rules if isinstance(rules, ActionRules) else ActionRules(rules)


def _lowest_unused_pool_id(state: State, pool: Sequence[str]) -> Optional[str]:
    existing = state.groups[GROUP["exists"]]
    for cid in pool:
        if (cid,) not in existing:
            return cid
    return None


def ground_rule(
    rule: ActionRule,
    state: State,
    domains: Domains,
    pool: Sequence[str],
) -> list[GroundedAction]:
    """All groundings of one rule whose precondition holds in ``state``."""
    seed: dict[str, str] = {}
    for p in rule.fresh_params:
        cid = _lowest_unused_pool_id(state, pool)
        if cid is None:
            return []
        seed[p] = cid

    free_domains = [domains.for_type(ty) for ty in rule.free_types]
    join = rule.ground_join
    slots = [(p, join.variables.index(p)) for p in sorted(rule.params)]
    # distinct auxiliary-variable matches can collapse to the same parameter
    # binding; the dict keeps the first of each, in order
    grounded: dict[GroundedAction, None] = {}
    for combo in itertools.product(*free_domains):
        seed.update(zip(rule.free_params, combo))
        for row in join.bindings(state, seed):
            binding = tuple((p, row[i]) for p, i in slots)
            grounded.setdefault(GroundedAction(rule.name, rule.legal_ref, binding))
    return list(grounded)


def applicable_actions(
    state: State,
    rules: ActionRules | Sequence[ActionRule],
    domains: Domains,
    pool: Sequence[str],
    max_steps: Optional[int] = None,
) -> list[GroundedAction]:
    """All applicable grounded actions, ordered by (name, legal_ref, binding).

    ``transferIP`` rules are suppressed once the one-shot transfer has been
    used.  When ``max_steps`` is given and reached, no action is applicable.
    """
    if max_steps is not None and state.step_count >= max_steps:
        return []
    out: list[GroundedAction] = []
    for rule in _action_rules(rules).ordered:
        if rule.name == "transferIP" and state.transfer_used:
            continue
        out.extend(ground_rule(rule, state, domains, pool))
    return out


def apply_action(
    state: State,
    action: GroundedAction,
    rules: ActionRules | Sequence[ActionRule],
    pool: Sequence[str],
) -> State:
    """Successor state after ``action``; raises KernelError if not applicable.

    The successor shares every group the action's effects do not touch with
    ``state``; each touched group is rebuilt from the rule's compiled delta,
    deletions before additions, and the successor passes the same full
    invariant check as a state built from its facts.
    """
    rule = _action_rules(rules).by_key.get((action.name, action.legal_ref))
    if rule is None:
        raise KernelError(f"no rule for action {action}")
    if rule.name == "transferIP" and state.transfer_used:
        raise KernelError(f"transfer already used, cannot apply {action}")

    binding = action.as_dict()
    for p in rule.params:
        if p not in binding:
            raise KernelError(f"action {action} misses binding for {p!r}")
    for p in rule.fresh_params:
        expected = _lowest_unused_pool_id(state, pool)
        if expected is None or binding[p] != expected:
            raise KernelError(
                f"fresh parameter {p!r} of {action} must bind the lowest unused "
                f"pool id ({expected!r})"
            )
    if not rule.check_join.exists(state, binding):
        raise KernelError(f"precondition of {action} does not hold")

    values = tuple(binding.get(v, v) for v in rule.effect_variables)
    for value in values:
        if not is_constant(value):
            raise KernelError(f"fact argument must be a ground constant: {value!r}")
    values += rule.effect_constants
    fill = values.__getitem__
    groups = list(state.groups)
    for position, deleted, added in rule.delta:
        rows = set(groups[position])
        rows.difference_update([tuple(map(fill, slots)) for slots in deleted])
        rows.update([tuple(map(fill, slots)) for slots in added])
        groups[position] = tuple(sorted(rows))
    return State._successor(
        tuple(groups),
        state.step_count + 1,
        state.transfer_used or rule.name == "transferIP",
    )
