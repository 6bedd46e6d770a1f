"""Transition-system kernel: ground facts, states, action grounding and application.

A state is a finite set of ground facts over a closed predicate vocabulary.
Action rules (parsed from the rule DSL, see :mod:`loophound.dsl`) describe
preconditions as conjunctions of literals and comparisons, and effects as
fact additions/deletions.  The kernel grounds rules against a state, checks
applicability and produces successor states.

Variables follow the Prolog convention: identifiers starting with an
uppercase letter are variables, everything else is a constant.  ``_`` is an
anonymous wildcard, only meaningful inside literals.

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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

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

# transaction-pattern predicate usable in reduction conditions only
TRANSACTION_PRED = "transaction"

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


@dataclass(frozen=True)
class State:
    """Immutable set of ground facts plus bookkeeping for the one-shot transfer."""

    facts: frozenset[Fact]
    step_count: int = 0
    transfer_used: bool = False

    def __post_init__(self) -> None:
        _validate_facts(self.facts)

    # fact index by predicate, built lazily; frozen dataclasses still own a
    # __dict__ so cached values can be slotted in without mutation semantics
    @property
    def index(self) -> dict[str, list[tuple[str, ...]]]:
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {p: [] for p in PREDICATES}
            for f in sorted(self.facts):
                cached[f.predicate].append(f.args)
            self.__dict__["_index"] = cached
        return cached

    def release_index(self) -> None:
        """Drop the cached fact index (rebuilt lazily on next access)."""
        self.__dict__.pop("_index", None)

    def holds(self, fact: Fact) -> bool:
        return fact in self.facts

    def companies(self) -> list[str]:
        """Existing company ids, sorted."""
        return sorted(args[0] for args in self.index["exists"])

    def key(self) -> frozenset[Fact]:
        """Deduplication key: the fact set itself."""
        return self.facts

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in sorted(self.facts)) + "}"


def _validate_facts(facts: Iterable[Fact]) -> None:
    owners: dict[str, str] = {}
    based: dict[str, set[str]] = {}
    managed: dict[str, set[str]] = {}
    rents: dict[str, list[tuple[str, str]]] = {}
    inbound: dict[tuple[str, str], str] = {}
    for f in facts:
        if f.predicate not in PREDICATES:
            raise KernelError(f"unknown predicate in state: {f.predicate!r}")
        if len(f.args) != len(PREDICATES[f.predicate]):
            raise KernelError(f"bad arity in state fact: {f}")
        if f.predicate == "ownsIP":
            company, ip = f.args
            if ip in owners and owners[ip] != company:
                raise KernelError(f"ip {ip!r} has more than one owner")
            owners[ip] = company
        elif f.predicate == "based":
            based.setdefault(f.args[0], set()).add(f.args[1])
        elif f.predicate == "managed":
            managed.setdefault(f.args[0], set()).add(f.args[1])
        elif f.predicate == "rentsIP":
            licensor, renter, ip = f.args
            rents.setdefault(ip, []).append((licensor, renter))
            key = (renter, ip)
            if key in inbound and inbound[key] != licensor:
                raise KernelError(
                    f"company {renter!r} rents ip {ip!r} from more than one licensor"
                )
            inbound[key] = licensor
    for company, countries in based.items():
        if len(countries) > 1:
            raise KernelError(f"company {company!r} is based in multiple countries")
    for company, countries in managed.items():
        if len(countries) > 1:
            raise KernelError(f"company {company!r} is managed from multiple countries")
    # licensing edges must stay acyclic per ip
    for ip, edges in rents.items():
        succ: dict[str, list[str]] = {}
        for licensor, renter in edges:
            succ.setdefault(licensor, []).append(renter)
        seen: set[str] = set()
        onpath: set[str] = set()

        def visit(node: str) -> None:
            if node in onpath:
                raise KernelError(f"rentsIP edges form a cycle for ip {ip!r}")
            if node in seen:
                return
            onpath.add(node)
            for nxt in succ.get(node, ()):
                visit(nxt)
            onpath.discard(node)
            seen.add(node)

        for licensor in list(succ):
            visit(licensor)


def initial_state(
    facts: Iterable[Fact], declared_companies: Iterable[str]
) -> State:
    """Initial state: declared facts plus exists() for every declared company."""
    full = set(facts)
    for c in declared_companies:
        full.add(Fact("exists", (c,)))
    return State(facts=frozenset(full), step_count=0, transfer_used=False)


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
    # parameters no positive literal binds: grounding enumerates their domains
    free_params: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # precondition compiled for grounding (fresh and free parameters seeded)
    # and for checking a grounded action (every parameter seeded)
    ground_join: CompiledCondition = field(init=False, repr=False, compare=False)
    check_join: CompiledCondition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from .join import CompiledCondition  # join builds on this module

        positive = {
            v
            for it in self.precondition
            if isinstance(it, Literal) and not it.negated
            for v in it.variables()
        }
        free = tuple(
            p for p in self.params if p not in self.fresh_params and p not in positive
        )
        object.__setattr__(self, "free_params", free)
        object.__setattr__(
            self,
            "ground_join",
            CompiledCondition(self.precondition, bound=self.fresh_params | set(free)),
        )
        object.__setattr__(
            self, "check_join", CompiledCondition(self.precondition, bound=self.params)
        )

    def key(self) -> tuple[str, str]:
        return (self.name, self.legal_ref)

    def inferred_types(self) -> dict[str, str]:
        """Variable -> entity type, inferred from literal positions."""
        types: dict[str, str] = {}
        pools = itertools.chain(
            ((lit, False) for lit in self.add_effects),
            ((lit, False) for lit in self.del_effects),
            (
                (it, True)
                for it in self.precondition
                if isinstance(it, Literal)
            ),
        )
        for lit, _ in pools:
            sig = PREDICATES.get(lit.predicate)
            if sig is None:
                continue
            for arg, ty in zip(lit.args, sig):
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

    def value(self, var: str) -> str:
        for k, v in self.binding:
            if k == var:
                return v
        raise KeyError(var)

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


def _lowest_unused_pool_id(state: State, pool: Sequence[str]) -> Optional[str]:
    existing = {args[0] for args in state.index["exists"]}
    for cid in pool:
        if cid not in existing:
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

    types = rule.inferred_types()
    free_domains = []
    for p in rule.free_params:
        ty = types.get(p)
        if ty is None:
            raise KernelError(
                f"cannot infer a domain for parameter {p!r} in rule {rule.key()}"
            )
        free_domains.append(domains.for_type(ty))

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
    rules: Sequence[ActionRule],
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
    for rule in sorted(rules, key=lambda r: r.key()):
        if rule.name == "transferIP" and state.transfer_used:
            continue
        out.extend(ground_rule(rule, state, domains, pool))
    return out


def apply_action(
    state: State,
    action: GroundedAction,
    rules: Sequence[ActionRule],
    domains: Domains,
    pool: Sequence[str],
) -> State:
    """Successor state after ``action``; raises KernelError if not applicable."""
    rule = None
    for r in rules:
        if r.key() == (action.name, action.legal_ref):
            rule = r
            break
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

    def instantiate(lit: Literal) -> Fact:
        args = []
        for a in lit.args:
            if a == WILDCARD:
                raise KernelError(f"wildcard in effect literal of {rule.key()}")
            args.append(binding.get(a, a))
        return make_fact(lit.predicate, args)

    facts = set(state.facts)
    for lit in rule.del_effects:
        facts.discard(instantiate(lit))
    for lit in rule.add_effects:
        facts.add(instantiate(lit))
    return State(
        facts=frozenset(facts),
        step_count=state.step_count + 1,
        transfer_used=state.transfer_used or rule.name == "transferIP",
    )
