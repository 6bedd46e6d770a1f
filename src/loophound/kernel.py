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
groups.  Every invariant is a check of one group: one owner per IP, one
``based`` and one ``managed`` country per company, and one licensor per
(renter, IP) with acyclic licensing per IP.  A state built from its groups
or its facts runs every check on every group.

A successor shares every group its action's effects do not touch with its
parent, the structural sharing of persistent data structures (Driscoll,
Sarnak, Sleator and Tarjan, JCSS 1989); each touched group is its parent's
group with the action's deleted and added rows applied, the delta of
incremental view maintenance (Gupta, Mumick and Subrahmanian, SIGMOD 1993).
The parent's groups have passed their checks, so only an edited group needs
one.  A search grounds, checks and edits through one :class:`ActionRules`,
which keeps each result by the groups it read and makes equal rows and
groups one object, the hash-consing of Filliâtre and Conchon ("Type-safe
modular hash-consing", ML Workshop 2006); a decode of a trajectory file
keeps one such table for the whole read.  Records that hold floats are
never shared: equality merges ``0.0`` with ``-0.0`` and ``1`` with ``True``.

An action rule checks its own well-formedness when it is built, by the
parser or by library code: known action name, distinct parameters, at most
one ``fresh`` parameter, known predicates at their arity, no transaction
pattern, wildcards only in negated literals and never in effects, every
effect variable a parameter, since a grounded action binds only its
parameters, and for ``transferIP`` one deleted ``ownsIP(Seller, Ip)`` and
one added ``ownsIP(Buyer, Ip)``, which name the parties of the sale.  It
raises one :class:`KernelError` naming every problem found; a rule that
adds ``exists(V)`` and no ``based`` or ``managed`` fact of ``V`` raises
after them, since a company is taxed where it is resident.  So a malformed
rule never exists and applying an action does not check its effects again.
A rule is a plain value: building it generates no code.

A state carries the one-shot IP sale on its path, a :class:`Transfer`:
applying a ``transferIP`` action records its step and the values its rule's
``ownsIP`` effects bind, and every later successor keeps it, so nothing
that reads a state walks its path back to find the sale.  A search's table
holds each distinct sale once, as it holds rows and groups.

Variables follow the Prolog convention: identifiers starting with an
uppercase letter are variables, everything else is a constant.  ``_`` is an
anonymous wildcard, allowed only inside negated literals.

Conditions are evaluated by :mod:`loophound.join`.  A rule checks its
precondition with the plan of the join that grounds it, and a search's
:class:`ActionRules` compiles that join once, on the rule's first grounding:
literal order in the source never changes a result, the join order follows
bound arguments, and comparisons and negations run as soon as their
variables are bound.
Grounding lists a rule's actions in the product order of its free
parameters' domains, then by the values of the sorted variable names.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

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


# a term is a name of the rule language: an ASCII letter or underscore, then
# letters, digits and underscores; a variable's starts with an uppercase
# letter, and the wildcard is neither a variable nor a constant


def is_variable(term: str) -> bool:
    return term.isidentifier() and term.isascii() and term[0].isupper()


def is_constant(term: str) -> bool:
    return term != WILDCARD and term.isidentifier() and term.isascii() and not term[0].isupper()


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


class Transfer(NamedTuple):
    """The one-shot IP sale on a state's path: the step of its
    ``transferIP`` and its parties, taken from the rule's ``ownsIP``
    effects."""

    step: int  # index of the transferIP action in the path
    seller: str  # the old owner, who is paid
    buyer: str  # the new owner, who pays


@dataclass(frozen=True, slots=True)
class State:
    """Immutable set of ground facts plus the one-shot IP sale on its path.

    ``groups`` holds, per predicate in :data:`PREDICATES` order, the sorted,
    distinct argument tuples of its facts.  The groups are the state's only
    copy of its facts: they are its deduplication key, and with the step
    count and the sale they define its equality.  The state's invariants
    are checked once, when it is built.
    """

    groups: tuple[Rows, ...]
    step_count: int = 0
    transfer: Optional[Transfer] = None

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
        for check, rows in zip(_CHECK, self.groups):
            check(rows)

    @classmethod
    def from_facts(
        cls,
        facts: Iterable[Fact],
        step_count: int = 0,
        transfer: Optional[Transfer] = None,
        table: Optional[dict] = None,
    ) -> State:
        """The state holding exactly ``facts``, duplicates merged.

        Every argument must be a string that :func:`is_constant` accepts;
        each distinct row is checked once, when ``table`` first meets it.
        The state's rows and groups are ``table``'s objects for their values,
        so states built through one table share them (see the module
        docstring); without a table the call uses its own.  Its groups enter
        ``table`` only once the state has passed its checks.
        """
        table = {} if table is None else table
        grouped: list[set[tuple[str, ...]]] = [set() for _ in PREDICATES]
        for predicate, args in facts:
            position = GROUP.get(predicate)
            if position is None:
                raise KernelError(f"unknown predicate in state: {predicate!r}")
            row = table.get(args)
            if row is None:
                for a in args:
                    if type(a) is not str or not is_constant(a):
                        raise KernelError(f"fact argument must be a ground constant: {a!r}")
                row = table[args] = args
            grouped[position].add(row)
        built = (tuple(sorted(rows)) for rows in grouped)
        groups = tuple(table.get(group, group) for group in built)
        state = cls(groups, step_count, transfer)
        for group in groups:
            table.setdefault(group, group)
        return state

    @staticmethod
    def from_checked_groups(
        groups: tuple[Rows, ...], step_count: int, transfer: Optional[Transfer]
    ) -> State:
        """A state from groups that are sorted and distinct and have passed
        their predicates' checks, as :func:`apply_action` builds them or a
        state already holds them; no check runs again."""
        state = object.__new__(State)
        object.__setattr__(state, "groups", groups)
        object.__setattr__(state, "step_count", step_count)
        object.__setattr__(state, "transfer", transfer)
        return state

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


def _one_owner_per_ip(rows: Rows) -> None:
    owners: set[str] = set()
    for _, ip in rows:
        if ip in owners:
            raise KernelError(f"ip {ip!r} has more than one owner")
        owners.add(ip)


def _one_country_per_company(where: str) -> Callable[[Rows], None]:
    def check(rows: Rows) -> None:
        # sorted rows: a company with two countries has two adjacent rows
        for (company, _), (following, _) in zip(rows, rows[1:]):
            if company == following:
                raise KernelError(f"company {company!r} is {where} multiple countries")

    return check


def _acyclic_licensing(rows: Rows) -> None:
    licensor_of: dict[tuple[str, str], str] = {}
    for licensor, renter, ip in rows:
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


def _unconstrained(rows: Rows) -> None:
    """``isChildOf`` and ``exists`` groups carry no invariant."""


# per predicate, in PREDICATES order, the check of its group's invariants
_CHECK: tuple[Callable[[Rows], None], ...] = tuple(
    {
        "based": _one_country_per_company("based in"),
        "managed": _one_country_per_company("managed from"),
        "ownsIP": _one_owner_per_ip,
        "rentsIP": _acyclic_licensing,
    }.get(predicate, _unconstrained)
    for predicate in PREDICATES
)


def initial_state(
    facts: Iterable[Fact],
    declared_companies: Iterable[str],
    table: Optional[dict] = None,
) -> State:
    """Initial state: declared facts plus exists() for every declared company,
    built through ``table`` as :meth:`State.from_facts` builds."""
    full = set(facts)
    for c in declared_companies:
        full.add(Fact("exists", (c,)))
    return State.from_facts(full, table=table)


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

    def __post_init__(self) -> None:
        from .join import plan  # join builds on this module

        problems = self._problems()
        if problems:
            raise KernelError(f"{self.name}/{self.legal_ref}: " + "; ".join(problems))
        free = self.free_params()
        types = self.inferred_types()
        for p in free:
            if p not in types:
                raise KernelError(
                    f"cannot infer a domain for parameter {p!r} in rule {self.key()}"
                )
        # the plan of the join that grounds the rule, fresh and free
        # parameters bound on entry: negation safety and the loop limit
        plan(self.precondition, self.fresh_params | set(free))
        # a company is taxed where it is resident, so one the action adds
        # needs a based or managed fact of its own
        resident = {
            lit.args[0] for lit in self.add_effects if lit.predicate in ("based", "managed")
        }
        for lit in self.add_effects:
            if lit.predicate == "exists" and lit.args[0] not in resident:
                raise KernelError(
                    f"{self.name}/{self.legal_ref}: {lit} is added without "
                    f"a based or managed fact of {lit.args[0]!r}"
                )

    def _problems(self) -> list[str]:
        """Every shape problem of the rule."""
        problems: list[str] = []
        if self.name not in ACTION_NAMES:
            problems.append(f"action name must be one of {ACTION_NAMES}")
        if len(set(self.params)) != len(self.params):
            problems.append("duplicate parameter names")
        if len(self.fresh_params) > 1:
            problems.append("at most one fresh parameter is allowed")
        problems += condition_problems(self.precondition)
        for lit in self.add_effects + self.del_effects:
            problems += _vocabulary_problems(lit)
            if WILDCARD in lit.args:
                problems.append(f"wildcard in effect literal {lit}")
            # a grounded action binds its parameters only
            problems += [
                f"effect variable {v!r} in {lit} is not bound by a parameter"
                for v in lit.variables()
                if v not in self.params
            ]
        if self.name == "transferIP" and _sale_parties(self) is None:
            problems.append(
                "transferIP must delete one ownsIP(Seller, Ip) and add one "
                "ownsIP(Buyer, Ip), Seller and Buyer distinct parameters"
            )
        return problems

    def key(self) -> tuple[str, str]:
        return (self.name, self.legal_ref)

    def free_params(self) -> tuple[str, ...]:
        """The parameters neither fresh nor bound by a positive literal, in
        order: grounding enumerates the domain of each one's entity type."""
        positive = {
            v
            for it in self.precondition
            if isinstance(it, Literal) and not it.negated
            for v in it.variables()
        }
        return tuple(
            p for p in self.params if p not in self.fresh_params and p not in positive
        )

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


def _sale_parties(rule: ActionRule) -> Optional[tuple[str, str]]:
    """(seller, buyer) parameters of a ``transferIP`` rule: the owner in its
    one deleted ``ownsIP`` effect and the owner in its one added ``ownsIP``
    effect, both of one IP.  None when the effects do not have that shape."""
    deleted = [lit.args for lit in rule.del_effects if lit.predicate == "ownsIP"]
    added = [lit.args for lit in rule.add_effects if lit.predicate == "ownsIP"]
    if len(deleted) != 1 or len(added) != 1 or {len(deleted[0]), len(added[0])} != {2}:
        return None
    (seller, sold), (buyer, bought) = deleted[0], added[0]
    if sold != bought or seller == buyer:
        return None
    if seller not in rule.params or buyer not in rule.params:
        return None
    return seller, buyer


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


# per group an action's effects touch, in PREDICATES order: (position, deleted
# rows, added rows, the group this entry made of each parent group so far),
# the added rows being the search's objects
Delta = tuple[tuple[int, Rows, Rows, dict[Rows, Rows]], ...]


class ActionRules:
    """One search's world, its action rules grounded over ``domains`` with
    fresh ids from ``pool``, and the search's tables.

    ``ordered`` holds the rules sorted by key and ``index`` the position in
    ``ordered`` of each key; two rules with one (name, legal_ref) raise a
    :class:`KernelError`, and so does a domain value or pool id that is not
    a ground constant, since grounding binds parameters to them.  Grounding
    and an edit are pure functions of the groups they read, so each runs
    once per distinct read set, Michie's memo function ("Memo functions and
    machine learning", Nature 1968):

    - ``grounders`` holds, per rule of ``ordered``, the rule compiled for
      grounding (see :meth:`grounder`), from its first grounding on, and
      None before it: most worlds a test builds ground a rule or two;
    - ``groundings`` holds, per rule of ``ordered``, its grounding by the
      key ``ground_keys`` takes of a state's groups: those its
      precondition's literals name, which are all its compiled join reads
      (see :mod:`loophound.join`), and ``exists`` for a rule with a fresh
      parameter.  A grounding is a dict whose keys are the rule's actions
      in grounding order, so that :func:`apply_action` tests an action's
      membership in one lookup;
    - ``compiled`` holds, for each action :func:`apply_action` has applied,
      its :data:`Delta`, per touched group its deleted and added rows and
      the group they made of each parent group, and the (seller, buyer)
      values of a ``transferIP``, ``()`` for another action;
    - ``table`` holds every distinct row, checked group and
      :class:`Transfer` the search built, so equal rows, groups and sales
      are one object and a read-set key compares by a few identity checks.

    The tables live as long as the search, so two searches share nothing.
    """

    def __init__(
        self, rules: Iterable[ActionRule], domains: Domains, pool: Sequence[str]
    ) -> None:
        self.ordered: tuple[ActionRule, ...] = tuple(sorted(rules, key=ActionRule.key))
        self.domains = domains
        self.pool = tuple(pool)
        self.index: dict[tuple[str, str], int] = {}
        for position, rule in enumerate(self.ordered):
            if rule.key() in self.index:
                raise KernelError(f"duplicate rule {rule.key()}")
            self.index[rule.key()] = position
        for value in (*domains.companies, *domains.countries, *domains.ips, *self.pool):
            if type(value) is not str or not is_constant(value):
                raise KernelError(f"domain value must be a ground constant: {value!r}")
        self.grounders: list[Optional[tuple]] = [None] * len(self.ordered)
        self.ground_keys: tuple[Callable[[tuple[Rows, ...]], object], ...] = tuple(
            _key(
                {GROUP[lit.predicate] for lit in rule.precondition if isinstance(lit, Literal)}
                | ({GROUP["exists"]} if rule.fresh_params else set())
            )
            for rule in self.ordered
        )
        self.groundings: tuple[dict[object, dict[GroundedAction, None]], ...] = tuple(
            {} for _ in self.ordered
        )
        self.table: dict[tuple, tuple] = {}
        self.compiled: dict[GroundedAction, tuple[Delta, tuple[str, ...]]] = {}

    def grounder(self, position: int) -> tuple:
        """The rule at ``position`` of ``ordered`` compiled for grounding:
        its precondition's :class:`~loophound.join.CompiledCondition` with
        its fresh and free parameters bound on entry, its free parameters,
        each one's domain, and per parameter in sorted order its slot in a
        solution row.  The first call compiles it, and ``grounders`` keeps
        it."""
        grounder = self.grounders[position]
        if grounder is None:
            from .join import CompiledCondition  # join builds on this module

            rule = self.ordered[position]
            free, types = rule.free_params(), rule.inferred_types()
            join = CompiledCondition(rule.precondition, bound=rule.fresh_params | set(free))
            domains = tuple(self.domains.for_type(types[p]) for p in free)
            slots = tuple(join.variables.index(p) for p in sorted(rule.params))
            grounder = self.grounders[position] = (join, free, domains, slots)
        return grounder


def _key(reads: Iterable[int]) -> Callable[[tuple[Rows, ...]], object]:
    """The key of a state's groups at the positions ``reads``: one group, a
    tuple of them in position order, or ``()`` for none."""
    positions = sorted(reads)
    if not positions:
        return lambda groups: ()
    return operator.itemgetter(*positions)


def _lowest_unused_pool_id(state: State, pool: Sequence[str]) -> Optional[str]:
    existing = state.groups[GROUP["exists"]]
    for cid in pool:
        if (cid,) not in existing:
            return cid
    return None


def ground_rule(state: State, rules: ActionRules, position: int) -> list[GroundedAction]:
    """All groundings of the rule at ``position`` of ``rules.ordered`` whose
    precondition holds in ``state``, through the rule's
    :meth:`~ActionRules.grounder`."""
    rule = rules.ordered[position]
    seed: dict[str, str] = {}
    for p in rule.fresh_params:
        cid = _lowest_unused_pool_id(state, rules.pool)
        if cid is None:
            return []
        seed[p] = cid

    join, free, domains, slots = rules.grounder(position)
    names = sorted(rule.params)
    # distinct auxiliary-variable matches can collapse to the same parameter
    # values; the dict keeps the first of each, in order
    grounded: dict[tuple[str, ...], GroundedAction] = {}
    for combo in itertools.product(*domains):
        seed.update(zip(free, combo))
        for row in join.bindings(state, seed):
            values = tuple([row[i] for i in slots])
            if values not in grounded:
                grounded[values] = GroundedAction(
                    rule.name, rule.legal_ref, tuple(zip(names, values))
                )
    return list(grounded.values())


def rule_actions(
    state: State, rules: ActionRules, position: int
) -> dict[GroundedAction, None]:
    """The actions of the rule at ``position`` of ``rules.ordered`` that
    apply in ``state``, the keys of the returned dict in grounding order.

    This is the one definition of applicability: an action applies exactly
    when its rule's precondition holds under its binding, STRIPS semantics
    (Fikes and Nilsson, AIJ 1971), which :func:`ground_rule` enumerates.  A
    ``transferIP`` rule has no action in a state that carries a sale.
    The rule is grounded once per distinct value of the groups it reads
    (see :class:`ActionRules`); the caller must not change the dict.
    """
    rule = rules.ordered[position]
    if state.transfer is not None and rule.name == "transferIP":
        return {}
    groundings = rules.groundings[position]
    read = rules.ground_keys[position](state.groups)
    grounded = groundings.get(read)
    if grounded is None:
        grounded = groundings[read] = dict.fromkeys(ground_rule(state, rules, position))
    return grounded


def applicable_actions(state: State, rules: ActionRules) -> list[GroundedAction]:
    """All applicable grounded actions, rule by rule in (name, legal_ref)
    order, as :func:`rule_actions` lists them.

    Within a rule, actions follow the product order of its free parameters'
    domains as ``rules.domains`` lists them (a search lists companies sorted
    and countries and IPs in declaration order), then the values of the
    sorted variable names: at the corpus root, ``EU-incorp`` lists germany,
    netherlands, ireland.
    """
    out: list[GroundedAction] = []
    for position in range(len(rules.ordered)):
        out.extend(rule_actions(state, rules, position))
    return out


def apply_action(state: State, action: GroundedAction, rules: ActionRules) -> State:
    """Successor state after ``action``; raises KernelError unless
    :func:`rule_actions` lists ``action`` for its rule in ``state``.

    An action applies exactly when it equals one its rule's grounding lists:
    the rule's name and legal reference, and a binding of every parameter
    and no other variable, sorted by variable name, under which the
    precondition holds, a free parameter bound to a value of its type's
    domain and a fresh one to the lowest unused pool id.  The first time
    ``rules`` applies ``action`` it compiles its :data:`Delta` and its sale
    (see :class:`ActionRules`).  The successor carries ``state``'s
    :class:`Transfer`, or the one a ``transferIP`` action makes, as
    ``rules.table``'s object for its value.

    The successor shares every group the action's effects do not touch with
    ``state``.  Each touched group is built from the delta, deletions before
    additions, and checked, once per distinct parent group and delta entry,
    so the successor holds only groups that passed their predicate's check,
    as a state built from its facts.  A group that fails its check is never
    stored, so it fails on every call.
    """
    at = rules.index.get((action.name, action.legal_ref))
    if at is None:
        raise KernelError(f"no rule for action {action}")
    if action not in rule_actions(state, rules, at):
        raise KernelError(f"precondition of {action} does not hold")
    compiled = rules.compiled.get(action)
    if compiled is None:
        compiled = rules.compiled[action] = _delta(rules.ordered[at], action, rules.table)
    delta, sale = compiled
    parents = state.groups
    groups = list(parents)
    for position, deleted, added, edited in delta:
        parent = parents[position]
        group = edited.get(parent)
        if group is None:
            group = edited[parent] = _edit(parent, position, deleted, added, rules.table)
        groups[position] = group
    transfer = state.transfer
    if sale:
        transfer = Transfer(state.step_count, *sale)
        # a sale starts with an int, so no row or group in the table equals it
        transfer = rules.table.setdefault(transfer, transfer)
    return State.from_checked_groups(tuple(groups), state.step_count + 1, transfer)


def _edit(parent: Rows, position: int, deleted: Rows, added: Rows, table: dict) -> Rows:
    """The group at ``position`` after deleting ``deleted`` from ``parent``
    and adding ``added``, checked, as ``table``'s object for its value."""
    rows = set(parent)
    rows.difference_update(deleted)
    rows.update(added)
    group = tuple(sorted(rows))
    _CHECK[position](group)
    return table.setdefault(group, group)


def _delta(
    rule: ActionRule, action: GroundedAction, table: dict
) -> tuple[Delta, tuple[str, ...]]:
    """The :data:`Delta` of ``action``, a grounding of ``rule``, its added
    rows ``table``'s objects, and the values it binds to the parties of a
    sale, (seller, buyer) of a ``transferIP``, else ``()``."""
    binding = action.as_dict()
    # per touched group, deleted rows and added rows, the binding filled in
    edits: dict[int, tuple[list, list]] = {}
    for effects, side in ((rule.del_effects, 0), (rule.add_effects, 1)):
        for lit in effects:
            row = tuple([binding.get(a, a) for a in lit.args])
            edits.setdefault(GROUP[lit.predicate], ([], []))[side].append(row)
    delta = tuple(
        (position, tuple(deleted), tuple(table.setdefault(row, row) for row in added), {})
        for position, (deleted, added) in sorted(edits.items())
    )
    parties = _sale_parties(rule) if rule.name == "transferIP" else None
    return delta, tuple(binding[p] for p in parties or ())
