"""Transition-system tests with brute-force matching and grounding oracles."""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophound.kernel import (
    ActionRule,
    Comparison,
    Domains,
    Fact,
    GroundedAction,
    KernelError,
    Literal,
    PREDICATES,
    State,
    WILDCARD,
    applicable_actions,
    apply_action,
    ground_rule,
    initial_state,
    make_fact,
)
from loophound.join import CompiledCondition
from conftest import scenario_domains, walk
from oracles import oracle_match

# ============================================================================
# Oracle solutions as engine rows
# ============================================================================


def expected_rows(state, condition, seed=None, extra_ground=None):
    """Oracle solutions as engine rows: one value per sorted variable name,
    sorted by those values, without duplicates."""
    seed = dict(seed or {})
    variables = sorted({v for item in condition for v in item.variables()} | set(seed))
    solutions = oracle_match(state, condition, seed, extra_ground)
    return sorted({tuple({**seed, **s}[v] for v in variables) for s in solutions})


# ============================================================================
# Fixtures
# ============================================================================


def small_state():
    return initial_state(
        declared_companies=["p", "c1"],
        facts=[
            make_fact("based", ["p", "usa"]),
            make_fact("based", ["c1", "ireland"]),
            make_fact("managed", ["c1", "bermuda"]),
            make_fact("ownsIP", ["p", "ip1"]),
            make_fact("isChildOf", ["c1", "p"]),
            make_fact("rentsIP", ["p", "c1", "ip1"]),
        ],
    )


CONDITIONS = [
    (Literal("based", ("X", "usa")),),
    (Literal("based", ("X", "C")), Literal("managed", ("X", "M"))),
    (Literal("exists", ("X",)), Literal("exists", ("Y",)), Comparison("X", "!=", "Y")),
    (Literal("ownsIP", ("X", "I")), Literal("based", ("X", "usa"))),
    (Literal("exists", ("X",)), Literal("ownsIP", ("X", WILDCARD), negated=True)),
    (Literal("exists", ("X",)), Literal("rentsIP", (WILDCARD, "X", "ip1"), negated=True)),
    (Literal("exists", ("X",)), Literal("rentsIP", (WILDCARD, "X", "ip2"), negated=True)),
    (Literal("isChildOf", ("C", "P")), Literal("based", ("C", "Cc")), Comparison("Cc", "!=", "usa")),
    (Literal("based", ("X", "nowhere")),),
    (Comparison("Cc", "!=", "usa"), Literal("based", ("C", "Cc")), Literal("isChildOf", ("C", "P"))),
]


def positive_variables(condition):
    return sorted(
        {v for it in condition if isinstance(it, Literal) and not it.negated for v in it.variables()}
    )


class TestMatchOracle:
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_match_equals_brute_force(self, condition):
        state = small_state()
        join = CompiledCondition(condition)
        assert join.bindings(state, {}) == expected_rows(state, condition)

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_match_exists_agrees_with_match(self, condition):
        state = small_state()
        variables = positive_variables(condition)
        join = CompiledCondition(condition, project=variables)
        rows = join.bindings(state, {})
        assert join.exists(state, {}) == bool(rows)
        for v in variables:
            i = join.variables.index(v)
            assert join.project(state, v) == {row[i] for row in rows}

    def test_seeded_binding_restricts_solutions(self):
        state = small_state()
        condition = (Literal("based", ("X", "C")),)
        join = CompiledCondition(condition, bound=("X",))
        assert join.variables == ("C", "X")
        assert join.bindings(state, {"X": "c1"}) == [("ireland", "c1")]
        assert join.bindings(state, {"X": "c1"}) == expected_rows(
            state, condition, {"X": "c1"}
        )
        assert not join.exists(state, {"X": "c9"})

    def test_extra_ground_patterns_participate(self):
        state = small_state()
        # a payment listed twice still gives one solution
        patterns = {"transaction": [("royalty", "c1", "p"), ("royalty", "c1", "p")]}
        condition = (
            Literal("based", ("Self", "usa")),
            Literal("transaction", ("royalty", "X", "Self")),
        )
        join = CompiledCondition(condition, project=("Self",))
        rows = join.bindings(state, {}, patterns)
        assert rows == [("p", "c1")]
        assert rows == expected_rows(state, condition, extra_ground=patterns)
        assert join.exists(state, {}, patterns)
        assert join.project(state, "Self", patterns) == {"p"}
        with pytest.raises(KernelError, match="unknown predicate"):
            join.exists(state, {})

    def test_checks_without_positive_literal_test_the_seed(self):
        state = small_state()
        condition = (
            Comparison("X", "!=", "Y"),
            Literal("ownsIP", ("X", WILDCARD), negated=True),
        )
        join = CompiledCondition(condition, bound=("X", "Y"))
        for x, y in itertools.product(["p", "c1"], repeat=2):
            seed = {"X": x, "Y": y}
            rows = expected_rows(state, condition, seed)
            assert join.bindings(state, seed) == rows
            assert join.exists(state, seed) == bool(rows)
        assert join.bindings(state, {"X": "c1", "Y": "p"}) == [("c1", "p")]

    def test_comparison_on_variable_no_positive_literal_binds_raises(self):
        with pytest.raises(KernelError, match="comparison"):
            CompiledCondition((Literal("exists", ("X",)), Comparison("Y", "!=", "usa")))

    def test_negation_on_unbound_variable_raises(self):
        with pytest.raises(KernelError, match="negated literal"):
            CompiledCondition(
                (Literal("exists", ("X",)), Literal("based", ("Y", "usa"), negated=True))
            )

    def test_projection_needs_a_positive_binder(self):
        condition = (Literal("exists", ("X",)), Comparison("Y", "!=", "X"))
        CompiledCondition(condition, bound=("Y",))
        with pytest.raises(KernelError):
            CompiledCondition(condition, bound=("Y",), project=("Y",))


@st.composite
def random_cases(draw):
    """A state, transaction patterns, a condition and a seed for it.

    A condition has 0-4 positive literals and 0-4 checks (negations and
    comparisons).  Checks sit anywhere in the condition, before or after
    the literal that binds their variables; seeded variables may appear in
    checks without a positive binder, and with no positive literal the
    checks use only constants and seeded variables.
    """
    companies = ["p", "c1", "c2"]
    countries = ["usa", "ireland", "bermuda"]
    ips = ["ip1", "ip2"]
    facts = [make_fact("exists", [c]) for c in companies]
    for company in companies:
        facts.append(make_fact("based", [company, draw(st.sampled_from(countries))]))
        if draw(st.booleans()):
            facts.append(make_fact("managed", [company, draw(st.sampled_from(countries))]))
    owner = draw(st.sampled_from(companies))
    facts.append(make_fact("ownsIP", [owner, "ip1"]))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pair = [draw(st.sampled_from(companies)), draw(st.sampled_from(companies))]
        facts.append(make_fact("isChildOf", pair))
    # licensing edges must be acyclic with one licensor per (renter, ip);
    # drawing edges only from earlier to later companies guarantees both
    n_edges = draw(st.integers(min_value=0, max_value=3))
    rented: set[tuple[str, str]] = set()
    for _ in range(n_edges):
        i = draw(st.integers(min_value=0, max_value=len(companies) - 2))
        j = draw(st.integers(min_value=i + 1, max_value=len(companies) - 1))
        ip = draw(st.sampled_from(ips))
        if (companies[j], ip) not in rented:
            rented.add((companies[j], ip))
            facts.append(make_fact("rentsIP", [companies[i], companies[j], ip]))
    state = State(facts=frozenset(facts))
    kinds = ["royalty", "commercial"]
    patterns = {
        "transaction": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(kinds),
                    st.sampled_from(companies),
                    st.sampled_from(companies),
                ),
                max_size=3,
            )
        )
    }

    constants = ["p", "c1", "usa", "ireland", "ip1", "royalty"]
    variables = ["X", "Y", "Z"]
    predicates = [
        ("based", 2), ("managed", 2), ("ownsIP", 2), ("rentsIP", 3),
        ("exists", 1), ("isChildOf", 2), ("transaction", 3),
    ]
    condition = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pred, arity = draw(st.sampled_from(predicates))
        if arity == 2 and draw(st.booleans()):
            var = draw(st.sampled_from(variables))
            args = (var, var)  # one variable twice in a literal
        else:
            args = tuple(draw(st.sampled_from(constants + variables)) for _ in range(arity))
        condition.append(Literal(pred, args))
    seed_vars = draw(st.lists(st.sampled_from(variables), unique=True, max_size=2))
    seed = {v: draw(st.sampled_from(constants + ["c2"])) for v in seed_vars}
    bindable = sorted(set(positive_variables(condition)) | set(seed))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.booleans()):
            pred, arity = draw(st.sampled_from(predicates))
            pool = constants + bindable + [WILDCARD]
            args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
            item = Literal(pred, args, negated=True)
        else:
            pool = constants + bindable
            item = Comparison(
                draw(st.sampled_from(pool)),
                draw(st.sampled_from(["==", "!="])),
                draw(st.sampled_from(pool)),
            )
        condition.insert(draw(st.integers(min_value=0, max_value=len(condition))), item)
    return state, patterns, tuple(condition), seed


class TestMatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(random_cases())
    def test_random_conditions_agree_with_oracle(self, case):
        state, patterns, condition, seed = case
        join = CompiledCondition(condition, bound=seed)
        rows = join.bindings(state, seed, patterns)
        assert rows == expected_rows(state, condition, seed, patterns)
        assert join.exists(state, seed, patterns) == bool(rows)
        # literal order in the source never changes a result
        reordered = CompiledCondition(tuple(reversed(condition)), bound=seed)
        assert reordered.bindings(state, seed, patterns) == rows

    @settings(max_examples=200, deadline=None)
    @given(random_cases())
    def test_projection_agrees_with_oracle(self, case):
        state, patterns, condition, _ = case
        positive = positive_variables(condition)
        checked = {
            v
            for it in condition
            if isinstance(it, Comparison) or it.negated
            for v in it.variables()
        }
        if not checked <= set(positive):
            with pytest.raises(KernelError):
                CompiledCondition(condition)
            return
        join = CompiledCondition(condition, project=positive)
        rows = expected_rows(state, condition, extra_ground=patterns)
        for v in positive:
            i = join.variables.index(v)
            assert join.project(state, v, patterns) == {row[i] for row in rows}


# ============================================================================
# Grounding and application
# ============================================================================


def toy_domains(toy_scenario):
    scenario = toy_scenario.scenario
    return Domains(
        companies=tuple(toy_scenario.state.companies) + scenario.company_pool,
        countries=scenario.countries,
        ips=tuple(toy_scenario.state.ips),
    )


def oracle_groundings(rule, state, domains, pool):
    """Enumerate every parameter assignment and filter by the oracle matcher."""
    existing = {f.args[0] for f in state.facts if f.predicate == "exists"}
    fresh_value = None
    for cid in pool:
        if cid not in existing:
            fresh_value = cid
            break
    types = rule.inferred_types()
    pools = []
    for param in rule.params:
        if param in rule.fresh_params:
            if fresh_value is None:
                return set()
            pools.append([fresh_value])
        else:
            pools.append(list(domains.for_type(types[param])))
    out = set()
    for combo in itertools.product(*pools):
        binding = dict(zip(rule.params, combo))
        if oracle_match(state, rule.precondition, binding):
            out.add(tuple(sorted(binding.items())))
    return out


class TestGrounding:
    def test_ground_rule_matches_enumeration_oracle(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=list(toy_scenario.state.companies),
            facts=list(toy_scenario.state.facts),
        )
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        for rule in toy_ruleset.action_rules:
            got = {g.binding for g in ground_rule(rule, state, domains, pool)}
            expected = oracle_groundings(rule, state, domains, pool)
            assert got == expected, rule.key()

    def test_fresh_binds_lowest_unused_pool_id(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=list(toy_scenario.state.companies),
            facts=list(toy_scenario.state.facts),
        )
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        incorp = next(r for r in toy_ruleset.action_rules if r.name == "addChild")
        for action in ground_rule(incorp, state, domains, pool):
            assert action.as_dict()["Child"] == "c1"
        first = ground_rule(incorp, state, domains, pool)[0]
        second = apply_action(state, first, toy_ruleset.action_rules, pool)
        for action in ground_rule(incorp, second, domains, pool):
            assert action.as_dict()["Child"] == "c2"

    def test_exhausted_pool_stops_incorporation(self, toy_ruleset, toy_scenario):
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        state = initial_state(
            declared_companies=["p", "c1", "c2"],
            facts=[
                make_fact("based", ["p", "usa"]),
                make_fact("based", ["c1", "usa"]),
                make_fact("based", ["c2", "usa"]),
                make_fact("ownsIP", ["p", "ip1"]),
            ],
        )
        incorp = next(r for r in toy_ruleset.action_rules if r.name == "addChild")
        assert ground_rule(incorp, state, domains, pool) == []


class TestApply:
    def test_apply_adds_and_deletes_effects(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=["p", "c1"],
            facts=[
                make_fact("based", ["p", "usa"]),
                make_fact("based", ["c1", "ireland"]),
                make_fact("ownsIP", ["p", "ip1"]),
            ],
        )
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        transfer = next(r for r in toy_ruleset.action_rules if r.name == "transferIP")
        action = next(
            a
            for a in ground_rule(transfer, state, domains, pool)
            if a.as_dict()["To"] == "c1"
        )
        result = apply_action(state, action, toy_ruleset.action_rules, pool)
        assert make_fact("ownsIP", ["c1", "ip1"]) in result.facts
        assert make_fact("ownsIP", ["p", "ip1"]) not in result.facts
        assert result.step_count == state.step_count + 1
        assert result.transfer_used
        # immutability of the source state
        assert make_fact("ownsIP", ["p", "ip1"]) in state.facts
        assert not state.transfer_used

    def test_transfer_is_one_shot(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=["p", "c1"],
            facts=[
                make_fact("based", ["p", "usa"]),
                make_fact("based", ["c1", "ireland"]),
                make_fact("ownsIP", ["p", "ip1"]),
            ],
        )
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        transfer = next(r for r in toy_ruleset.action_rules if r.name == "transferIP")
        action = ground_rule(transfer, state, domains, pool)[0]
        after = apply_action(state, action, toy_ruleset.action_rules, pool)
        names = {a.name for a in applicable_actions(after, toy_ruleset.action_rules, domains, pool)}
        assert "transferIP" not in names
        with pytest.raises(KernelError):
            apply_action(after, action, toy_ruleset.action_rules, pool)

    def test_max_steps_cuts_off_actions(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=["p"],
            facts=[make_fact("based", ["p", "usa"]), make_fact("ownsIP", ["p", "ip1"])],
        )
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        assert applicable_actions(state, toy_ruleset.action_rules, domains, pool, max_steps=0) == []

    def test_inapplicable_action_rejected(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=["p"],
            facts=[make_fact("based", ["p", "usa"]), make_fact("ownsIP", ["p", "ip1"])],
        )
        domains = toy_domains(toy_scenario)
        pool = toy_scenario.scenario.company_pool
        transfer = next(r for r in toy_ruleset.action_rules if r.name == "transferIP")
        bogus = ground_rule(transfer, state, domains, pool)
        assert bogus == []  # nobody to transfer to


class TestStateValidation:
    def test_unknown_predicate_rejected(self):
        with pytest.raises(KernelError):
            make_fact("flies", ["p"])

    def test_bad_arity_rejected(self):
        with pytest.raises(KernelError):
            make_fact("based", ["p"])

    def test_variable_in_fact_rejected(self):
        with pytest.raises(KernelError):
            State(facts=frozenset([make_fact("based", ["p", "usa"]), make_fact("exists", ["P"])]))


# a well-formed rule; each case below breaks it in one way
LICENSE = ActionRule(
    name="rentIP",
    legal_ref="license",
    params=("L", "R", "I"),
    fresh_params=frozenset(),
    precondition=(
        Literal("ownsIP", ("L", "I")),
        Literal("exists", ("R",)),
        Comparison("L", "!=", "R"),
    ),
    add_effects=(Literal("rentsIP", ("L", "R", "I")),),
    del_effects=(),
)

MALFORMED_ACTIONS = {
    "unknown-name": ({"name": "fly"}, "action name must be one of"),
    "duplicate-parameter": ({"params": ("L", "R", "L", "I")}, "duplicate parameter"),
    "two-fresh": (
        {"params": ("L", "R", "I", "A", "B"), "fresh_params": frozenset({"A", "B"})},
        "at most one fresh parameter",
    ),
    "unknown-predicate": (
        {"precondition": LICENSE.precondition + (Literal("owns", ("L",)),)},
        "unknown predicate 'owns'",
    ),
    "precondition-arity": (
        {"precondition": LICENSE.precondition + (Literal("exists", ("L", "R")),)},
        "exists expects 1 argument",
    ),
    "positive-wildcard": (
        {"precondition": LICENSE.precondition + (Literal("rentsIP", ("_", "L", "I")),)},
        "wildcards are only allowed in negated literals",
    ),
    "transaction-in-action": (
        {
            "precondition": LICENSE.precondition
            + (Literal("transaction", ("royalty", "L", "R")),)
        },
        "only allowed in reduction conditions",
    ),
    "unknown-effect-predicate": (
        {"add_effects": (Literal("licenses", ("L", "R")),)},
        "unknown predicate 'licenses'",
    ),
    "effect-arity": (
        {"del_effects": (Literal("ownsIP", ("L",)),)},
        "ownsIP expects 2 argument",
    ),
    "effect-wildcard": (
        {"add_effects": (Literal("rentsIP", ("L", "_", "I")),)},
        "wildcard in effect literal",
    ),
    "unbound-effect-variable": (
        {"add_effects": (Literal("exists", ("Z",)),)},
        "effect variable 'Z' in exists(Z) is not bound",
    ),
}


class TestActionRuleValidation:
    @pytest.mark.parametrize(
        "changes,message", MALFORMED_ACTIONS.values(), ids=MALFORMED_ACTIONS.keys()
    )
    def test_malformed_rule_rejected_when_built(self, changes, message):
        with pytest.raises(KernelError, match=re.escape(message)):
            replace(LICENSE, **changes)

    def test_one_error_names_every_problem(self):
        with pytest.raises(KernelError) as info:
            replace(
                LICENSE,
                name="fly",
                add_effects=(Literal("rentsIP", ("L", "_", "Z")),),
            )
        message = str(info.value)
        assert message.startswith("fly/license: action name must be one of")
        assert "wildcard in effect literal rentsIP(L, _, Z)" in message
        assert "effect variable 'Z'" in message


def rents(licensor, renter, ip="ip1"):
    return Fact("rentsIP", (licensor, renter, ip))


# raw fact sets that each break one state invariant, with the error they raise
INVALID_STATES = {
    "unknown-predicate": ([Fact("flies", ("p",))], "unknown predicate"),
    "bad-arity": ([Fact("based", ("p",))], "bad arity"),
    "two-ip-owners": (
        [Fact("ownsIP", ("p", "ip1")), Fact("ownsIP", ("q", "ip1"))],
        "more than one owner",
    ),
    "two-based-countries": (
        [Fact("based", ("p", "usa")), Fact("based", ("p", "ireland"))],
        "based in multiple countries",
    ),
    "two-managed-countries": (
        [Fact("managed", ("p", "usa")), Fact("managed", ("p", "ireland"))],
        "managed from multiple countries",
    ),
    "two-licensors": ([rents("p", "c"), rents("q", "c")], "more than one licensor"),
    "two-cycle": ([rents("a", "b"), rents("b", "a")], "cycle for ip 'ip1'"),
    # a rents from b, b from c, c from b: the chain from a only enters the cycle
    "cycle-entered-from-outside": (
        [rents("b", "a"), rents("c", "b"), rents("b", "c")],
        "cycle for ip 'ip1'",
    ),
}


class TestStateInvariants:
    @pytest.mark.parametrize(
        "facts,message", INVALID_STATES.values(), ids=INVALID_STATES.keys()
    )
    def test_broken_invariant_rejected(self, facts, message):
        with pytest.raises(KernelError, match=message):
            State(facts=frozenset(facts))

    def test_licensing_forest_accepted(self):
        # two trees for ip1, one shared renter chain for ip2: every renter has
        # one licensor per ip, and c licenses a for ip2 while a licenses c for ip1
        facts = frozenset(
            [
                Fact("ownsIP", ("a", "ip1")),
                Fact("ownsIP", ("c", "ip2")),
                rents("a", "b"),
                rents("a", "c"),
                rents("c", "d"),
                rents("e", "f"),
                rents("c", "a", "ip2"),
                rents("a", "b", "ip2"),
            ]
        )
        assert len(State(facts=facts).index["rentsIP"]) == 6

    def test_index_groups_sorted_facts_by_predicate(self):
        state = small_state()
        ordered = sorted(state.facts)
        assert state.index == {
            p: tuple(f.args for f in ordered if f.predicate == p) for p in PREDICATES
        }
        assert state.companies() == ["c1", "p"]

    def test_equal_facts_give_equal_states(self):
        state = small_state()
        twin = State(facts=frozenset(sorted(state.facts, reverse=True)))
        assert twin == state
        assert hash(twin) == hash(state)
        assert twin != State(facts=state.facts, step_count=1)


# ============================================================================
# Successors built from the parent's index
# ============================================================================


def instantiated(lits, binding):
    return {
        Fact(lit.predicate, tuple(binding.get(a, a) for a in lit.args)) for lit in lits
    }


def scratch_successor(state, action, rules):
    """The successor built from its fact set, with the effects applied by hand."""
    rule = next(r for r in rules if r.key() == (action.name, action.legal_ref))
    binding = action.as_dict()
    facts = (state.facts - instantiated(rule.del_effects, binding)) | instantiated(
        rule.add_effects, binding
    )
    return State(
        frozenset(facts),
        state.step_count + 1,
        state.transfer_used or rule.name == "transferIP",
    )


def outcome(build):
    """The state ``build`` returns with its index, or the KernelError it raises."""
    try:
        state = build()
    except KernelError as exc:
        return ("error", str(exc))
    return ("state", state, state.index)


# rules without the corpus's guards: each can break a state invariant
UNGUARDED = tuple(
    ActionRule(
        name=name,
        legal_ref=ref,
        params=params,
        fresh_params=frozenset(),
        precondition=tuple(Literal("exists", (p,)) for p in params[:1]),
        add_effects=(Literal(predicate, params),),
        del_effects=(),
    )
    for name, ref, predicate, params in (
        ("rentIP", "any-license", "rentsIP", ("L", "R", "I")),
        ("rentIP", "seize", "ownsIP", ("C", "I")),
        ("addChild", "rebase", "based", ("C", "Country")),
        ("addChild", "reseat", "managed", ("C", "Seat")),
    )
)


class TestSuccessor:
    """``apply_action`` builds a successor from its parent's index; it must
    equal the state built from the successor's facts."""

    @given(choices=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_successor_equals_state_built_from_scratch(
        self, corpus_ruleset, corpus_scenario, choices
    ):
        states, actions = walk(corpus_ruleset, corpus_scenario, choices)
        for parent, action, child in zip(states, actions, states[1:]):
            scratch = scratch_successor(parent, action, corpus_ruleset.action_rules)
            assert child.facts == scratch.facts
            assert child.index == scratch.index
            assert child.step_count == scratch.step_count
            assert child.transfer_used == scratch.transfer_used

    @given(
        choices=st.lists(st.integers(min_value=0), max_size=8),
        pick=st.integers(min_value=0),
    )
    @settings(max_examples=150, deadline=None)
    def test_broken_invariant_raises_the_same_error_on_both_paths(
        self, corpus_ruleset, corpus_scenario, choices, pick
    ):
        states, _ = walk(corpus_ruleset, corpus_scenario, choices)
        state = states[-1]
        scenario = corpus_scenario.scenario
        domains = scenario_domains(scenario)
        pool = scenario.company_pool
        acts = applicable_actions(state, UNGUARDED, domains, pool)
        action = acts[pick % len(acts)]
        incremental = outcome(
            lambda: apply_action(state, action, UNGUARDED, pool)
        )
        assert incremental == outcome(
            lambda: scratch_successor(state, action, UNGUARDED)
        )

    def test_a_broken_invariant_is_caught(self, corpus_ruleset, corpus_scenario):
        states, _ = walk(corpus_ruleset, corpus_scenario, ())
        scenario = corpus_scenario.scenario
        rebase = GroundedAction(
            "addChild", "rebase", (("C", "p"), ("Country", "ireland"))
        )
        with pytest.raises(KernelError, match="based in multiple countries"):
            apply_action(states[0], rebase, UNGUARDED, scenario.company_pool)
