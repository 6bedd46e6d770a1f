"""Transition-system tests with brute-force matching and grounding oracles."""

from __future__ import annotations

import itertools
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophound.kernel import (
    ActionRule,
    ActionRules,
    Comparison,
    Domains,
    Fact,
    GROUP,
    GroundedAction,
    KernelError,
    Literal,
    PREDICATES,
    State,
    Transfer,
    WILDCARD,
    applicable_actions,
    apply_action,
    ground_rule,
    initial_state,
    make_fact,
)
from loophound.explorer import search_world
from loophound.join import CompiledCondition, compile_projection, plan
from loophound.taxation import SELF_VAR
from loophound.dsl import parse_ruleset
from conftest import TOY_RULESET, walk
from oracles import kind_rows, oracle_match, path_transfer


def projected(condition, state, var, patterns=None):
    """The values of ``var`` over the solutions of ``condition``, from the
    generated projection of that one condition."""
    found = compile_projection([condition], var)(state.groups, kind_rows(patterns or {}))
    assert set(found.values()) <= {(0,)}
    return set(found)

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
        join = CompiledCondition(condition)
        rows = join.bindings(state, {})
        for v in variables:
            i = join.variables.index(v)
            assert projected(condition, state, v) == {row[i] for row in rows}

    def test_seeded_binding_restricts_solutions(self):
        state = small_state()
        condition = (Literal("based", ("X", "C")),)
        join = CompiledCondition(condition, bound=("X",))
        assert join.variables == ("C", "X")
        assert join.bindings(state, {"X": "c1"}) == [("ireland", "c1")]
        assert join.bindings(state, {"X": "c1"}) == expected_rows(
            state, condition, {"X": "c1"}
        )
        assert join.bindings(state, {"X": "c9"}) == []

    def test_extra_ground_patterns_participate(self):
        state = small_state()
        # a payment listed twice still gives one solution
        patterns = {"transaction": [("royalty", "c1", "p"), ("royalty", "c1", "p")]}
        condition = (
            Literal("based", ("Self", "usa")),
            Literal("transaction", ("royalty", "X", "Self")),
        )
        rows = expected_rows(state, condition, extra_ground=patterns)
        assert rows == [("p", "c1")]
        assert projected(condition, state, "Self", patterns) == {"p"}
        assert projected(condition, state, "X", patterns) == {"c1"}
        assert projected(condition, state, "Self") == set()

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
            compile_projection([condition], "Y")
        with pytest.raises(KernelError, match="no positive literal binds"):
            compile_projection([condition[:1]], "Y")


@st.composite
def random_cases(draw, transactions=True):
    """A state, transaction patterns, a condition and a seed for it.

    A condition has 0-4 positive literals and 0-4 checks (negations and
    comparisons).  Checks sit anywhere in the condition, before or after
    the literal that binds their variables; seeded variables may appear in
    checks without a positive binder, and with no positive literal the
    checks use only constants and seeded variables.  Without
    ``transactions`` the condition reads the state alone, as an action
    rule's precondition does, and there are no patterns.
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
    state = State.from_facts(frozenset(facts))
    kinds = ["royalty", "commercial"]
    patterns = {
        "transaction": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(kinds),
                    st.sampled_from(companies),
                    st.sampled_from(companies),
                ),
                max_size=3 if transactions else 0,
            )
        )
    }

    constants = ["p", "c1", "usa", "ireland", "ip1", "royalty"]
    variables = ["X", "Y", "Z"]
    predicates = [
        ("based", 2), ("managed", 2), ("ownsIP", 2), ("rentsIP", 3),
        ("exists", 1), ("isChildOf", 2),
    ]
    if transactions:
        predicates.append(("transaction", 3))
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
    @given(random_cases(transactions=False))
    def test_random_conditions_agree_with_oracle(self, case):
        state, _, condition, seed = case
        join = CompiledCondition(condition, bound=seed)
        rows = join.bindings(state, seed)
        assert rows == expected_rows(state, condition, seed)
        # literal order in the source never changes a result
        reordered = CompiledCondition(tuple(reversed(condition)), bound=seed)
        assert reordered.bindings(state, seed) == rows

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
                plan(condition, frozenset())
            for v in positive:
                with pytest.raises(KernelError):
                    compile_projection([condition], v)
            return
        variables = sorted({v for item in condition for v in item.variables()})
        rows = expected_rows(state, condition, extra_ground=patterns)
        for v in positive:
            i = variables.index(v)
            assert projected(condition, state, v, patterns) == {row[i] for row in rows}


# ============================================================================
# Grounding and application
# ============================================================================


def oracle_groundings(rule, state, domains, pool):
    """Enumerate every parameter assignment and filter by the oracle matcher."""
    existing = {f.args[0] for f in state.facts() if f.predicate == "exists"}
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
        rules, state = search_world(toy_ruleset.action_rules, toy_scenario)
        domains, pool = rules.domains, rules.pool
        for position, rule in enumerate(rules.ordered):
            got = {g.binding for g in ground_rule(state, rules, position)}
            expected = oracle_groundings(rule, state, domains, pool)
            assert got == expected, rule.key()

    def test_fresh_binds_lowest_unused_pool_id(self, toy_ruleset, toy_scenario):
        rules, state = search_world(toy_ruleset.action_rules, toy_scenario)
        incorp = next(i for i, r in enumerate(rules.ordered) if r.name == "addChild")
        for action in ground_rule(state, rules, incorp):
            assert action.as_dict()["Child"] == "c1"
        first = ground_rule(state, rules, incorp)[0]
        second = apply_action(state, first, rules)
        for action in ground_rule(second, rules, incorp):
            assert action.as_dict()["Child"] == "c2"

    def test_exhausted_pool_stops_incorporation(self, toy_ruleset, toy_scenario):
        rules, _ = search_world(toy_ruleset.action_rules, toy_scenario)
        state = initial_state(
            declared_companies=["p", "c1", "c2"],
            facts=[
                make_fact("based", ["p", "usa"]),
                make_fact("based", ["c1", "usa"]),
                make_fact("based", ["c2", "usa"]),
                make_fact("ownsIP", ["p", "ip1"]),
            ],
        )
        incorp = next(i for i, r in enumerate(rules.ordered) if r.name == "addChild")
        assert ground_rule(state, rules, incorp) == []


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
        rules, _ = search_world(toy_ruleset.action_rules, toy_scenario)
        transfer = next(i for i, r in enumerate(rules.ordered) if r.name == "transferIP")
        action = next(
            a
            for a in ground_rule(state, rules, transfer)
            if a.as_dict()["To"] == "c1"
        )
        result = apply_action(state, action, rules)
        assert make_fact("ownsIP", ["c1", "ip1"]) in result.facts()
        assert make_fact("ownsIP", ["p", "ip1"]) not in result.facts()
        assert result.step_count == state.step_count + 1
        # the sale at step 0: p, whose ownsIP the rule deletes, sells to c1
        assert result.transfer == Transfer(0, seller="p", buyer="c1")
        # immutability of the source state
        assert make_fact("ownsIP", ["p", "ip1"]) in state.facts()
        assert state.transfer is None

    def test_transfer_is_one_shot(self, toy_ruleset, toy_scenario):
        state = initial_state(
            declared_companies=["p", "c1"],
            facts=[
                make_fact("based", ["p", "usa"]),
                make_fact("based", ["c1", "ireland"]),
                make_fact("ownsIP", ["p", "ip1"]),
            ],
        )
        rules, _ = search_world(toy_ruleset.action_rules, toy_scenario)
        transfer = next(i for i, r in enumerate(rules.ordered) if r.name == "transferIP")
        action = ground_rule(state, rules, transfer)[0]
        after = apply_action(state, action, rules)
        names = {a.name for a in applicable_actions(after, rules)}
        assert "transferIP" not in names
        with pytest.raises(KernelError):
            apply_action(after, action, rules)

    def test_an_ownsIP_move_of_another_rule_is_no_sale(self, toy_scenario):
        """Only a transferIP sells: a rentIP rule whose effects move ownsIP
        the way a sale does leaves the state without one, and the one-shot
        transferIP still applies after it."""
        move = (
            'action rentIP(From, To, Ip) ref "move" {\n'
            "  pre: ownsIP(From, Ip), exists(To), From != To;\n"
            "  eff: not ownsIP(From, Ip), ownsIP(To, Ip);\n"
            "}\n"
        )
        parsed = parse_ruleset(TOY_RULESET + move)
        assert parsed.ok, [str(d) for d in parsed.diagnostics]
        rules, state = search_world(parsed.document.action_rules, toy_scenario)
        state = apply_action(state, applicable_actions(state, rules)[0], rules)
        moved = next(a for a in applicable_actions(state, rules) if a.legal_ref == "move")
        state = apply_action(state, moved, rules)
        assert make_fact("ownsIP", ["c1", "ip1"]) in state.facts()
        assert state.transfer is None
        sale = next(a for a in applicable_actions(state, rules) if a.name == "transferIP")
        after = apply_action(state, sale, rules)
        seller, buyer = sale.as_dict()["From"], sale.as_dict()["To"]
        assert after.transfer == Transfer(2, seller=seller, buyer=buyer)

    def test_inapplicable_action_rejected(self, toy_ruleset, toy_scenario):
        rules, state = search_world(toy_ruleset.action_rules, toy_scenario)
        transfer = next(i for i, r in enumerate(rules.ordered) if r.name == "transferIP")
        bogus = ground_rule(state, rules, transfer)
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
            State.from_facts(frozenset([make_fact("based", ["p", "usa"]), make_fact("exists", ["P"])]))


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
    # a grounded action binds only its parameters: X would have no value
    "effect-variable-bound-by-precondition-only": (
        {
            "precondition": LICENSE.precondition + (Literal("rentsIP", ("X", "L", "I")),),
            "add_effects": (Literal("rentsIP", ("X", "R", "I")),),
        },
        "effect variable 'X' in rentsIP(X, R, I) is not bound",
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


def with_based(*rows):
    """Groups holding ``rows`` as the ``based`` group (the first) and nothing else."""
    return (rows,) + ((),) * (len(PREDICATES) - 1)


class TestStateInvariants:
    @pytest.mark.parametrize(
        "facts,message", INVALID_STATES.values(), ids=INVALID_STATES.keys()
    )
    def test_broken_invariant_rejected(self, facts, message):
        with pytest.raises(KernelError, match=message):
            State.from_facts(frozenset(facts))
        table = {}
        with pytest.raises(KernelError, match=message):
            State.from_facts(frozenset(facts), table=table)
        # a rejected state leaves its rows in the table, but none of its groups
        assert all(type(a) is str for value in table for a in value)

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
        assert len(State.from_facts(facts).rows("rentsIP")) == 6

    def test_index_groups_sorted_facts_by_predicate(self):
        state = small_state()
        ordered = sorted(state.facts())
        assert list(state.facts()) == ordered
        assert state.groups == tuple(
            tuple(f.args for f in ordered if f.predicate == p) for p in PREDICATES
        )
        assert all(state.rows(p) is state.groups[GROUP[p]] for p in PREDICATES)
        assert state.key() is state.groups
        assert state.companies() == ["c1", "p"]

    def test_equal_facts_give_equal_states(self):
        state = small_state()
        twin = State.from_facts(sorted(state.facts(), reverse=True))
        assert twin == state
        assert hash(twin) == hash(state)
        assert twin.key() == state.key()
        assert twin != State.from_facts(state.facts(), step_count=1)
        assert twin != State.from_facts(state.facts(), transfer=Transfer(0, "p", "c1"))

    def test_state_holds_no_dict_or_frozenset(self):
        state = small_state()
        assert not hasattr(state, "__dict__")
        assert list(State.__slots__) == ["groups", "step_count", "transfer"]
        assert type(state.groups) is tuple and len(state.groups) == len(PREDICATES)
        for rows in state.groups:
            assert type(rows) is tuple
            assert all(type(row) is tuple for row in rows)

    @pytest.mark.parametrize(
        "groups,message",
        [
            ((), "one group per predicate"),
            (((),) * 5 + ([],), "not a tuple"),
            (with_based(("p",)), "bad arity"),
            (with_based(("p", "usa"), ("c", "usa")), "not sorted and distinct"),
            (with_based(("p", "usa"), ("p", "usa")), "not sorted and distinct"),
        ],
    )
    def test_malformed_groups_rejected(self, groups, message):
        with pytest.raises(KernelError, match=message):
            State(groups)


# ============================================================================
# Successors built from the parent's index
# ============================================================================


def instantiated(lits, binding):
    return {
        Fact(lit.predicate, tuple(binding.get(a, a) for a in lit.args)) for lit in lits
    }


def scratch_successor(state, action, rules, transfer):
    """The successor built from its fact set, with the effects applied by
    hand, carrying ``transfer``."""
    rule = next(r for r in rules if r.key() == (action.name, action.legal_ref))
    binding = action.as_dict()
    facts = (set(state.facts()) - instantiated(rule.del_effects, binding)) | instantiated(
        rule.add_effects, binding
    )
    return State.from_facts(facts, state.step_count + 1, transfer)


def outcome(build):
    """The state ``build`` returns with its groups, or the KernelError it raises."""
    try:
        state = build()
    except KernelError as exc:
        return ("error", str(exc))
    return ("state", state, state.groups)


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


class TestActionRules:
    def test_a_repeated_rule_key_is_rejected(self, corpus_scenario):
        """Two rules of one (name, legal_ref) make no world: an action names
        its rule by that key alone."""
        rebase = UNGUARDED[2]
        twin = replace(
            rebase,
            params=("Firm", "Place"),
            precondition=(Literal("exists", ("Firm",)),),
            add_effects=(Literal("based", ("Firm", "Place")),),
        )
        message = re.escape("duplicate rule ('addChild', 'rebase')")
        for rules in (UNGUARDED + (twin,), (rebase, rebase)):
            with pytest.raises(KernelError, match=message):
                search_world(rules, corpus_scenario)

    def test_a_domain_value_that_is_not_a_constant_is_rejected(self):
        """Grounding binds parameters to domain values and pool ids, so each
        must be a ground constant for the states it builds to hold only
        constants."""
        message = "domain value must be a ground constant: 'Ireland'"
        for domains, pool in (
            (Domains(("p",), ("Ireland",), ()), ()),
            (Domains(("p",), ("usa",), ()), ("Ireland",)),
        ):
            with pytest.raises(KernelError, match=re.escape(message)):
                ActionRules(UNGUARDED, domains, pool)


class TestSuccessor:
    """``apply_action`` builds a successor from its parent's index; it must
    equal the state built from the successor's facts."""

    @given(choices=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_successor_equals_state_built_from_scratch(
        self, corpus_ruleset, corpus_scenario, choices
    ):
        states, actions = walk(corpus_ruleset, corpus_scenario, choices)
        for step, (parent, action, child) in enumerate(zip(states, actions, states[1:])):
            sale = path_transfer(corpus_ruleset, actions[: step + 1])
            scratch = scratch_successor(
                parent, action, corpus_ruleset.action_rules, sale
            )
            assert list(child.facts()) == list(scratch.facts())
            assert child.groups == scratch.groups
            assert child.step_count == scratch.step_count
            assert child.transfer == scratch.transfer

    @given(choices=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_untouched_groups_are_the_parents(
        self, corpus_ruleset, corpus_scenario, choices
    ):
        rules = {r.key(): r for r in corpus_ruleset.action_rules}
        states, actions = walk(corpus_ruleset, corpus_scenario, choices)
        for parent, action, child in zip(states, actions, states[1:]):
            rule = rules[(action.name, action.legal_ref)]
            touched = {lit.predicate for lit in rule.add_effects + rule.del_effects}
            for predicate in PREDICATES:
                if predicate not in touched:
                    assert child.rows(predicate) is parent.rows(predicate)
                else:
                    assert child.rows(predicate) is not parent.rows(predicate)

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
        acts = applicable_actions(state, search_world(UNGUARDED, corpus_scenario)[0])
        action = acts[pick % len(acts)]
        incremental = outcome(
            lambda: apply_action(state, action, search_world(UNGUARDED, corpus_scenario)[0])
        )
        # no unguarded rule sells: the successor keeps the state's sale
        assert incremental == outcome(
            lambda: scratch_successor(state, action, UNGUARDED, state.transfer)
        )
        # one ActionRules for the whole walk: its tables already hold what
        # the action built, or failed to build, from every state before
        shared = search_world(UNGUARDED, corpus_scenario)[0]
        for earlier in states:
            outcome(lambda: apply_action(earlier, action, shared))
        assert outcome(lambda: apply_action(state, action, shared)) == incremental

    def test_a_broken_invariant_is_caught(self, corpus_ruleset, corpus_scenario):
        states, _ = walk(corpus_ruleset, corpus_scenario, ())
        rebase = GroundedAction(
            "addChild", "rebase", (("C", "p"), ("Country", "ireland"))
        )
        with pytest.raises(KernelError, match="based in multiple countries"):
            apply_action(states[0], rebase, search_world(UNGUARDED, corpus_scenario)[0])

    def test_a_broken_invariant_is_caught_on_every_application(
        self, corpus_ruleset, corpus_scenario
    ):
        """A group that fails its check is never stored, so one ActionRules
        rejects it again, also when another state rebuilds it."""
        states, _ = walk(corpus_ruleset, corpus_scenario, ())
        rules, _ = search_world(UNGUARDED, corpus_scenario)
        rebase = GroundedAction(
            "addChild", "rebase", (("C", "p"), ("Country", "ireland"))
        )
        reseat = GroundedAction("addChild", "reseat", (("C", "p"), ("Seat", "usa")))
        second = apply_action(states[0], reseat, rules)
        assert second.rows("based") is states[0].rows("based")
        for state in (states[0], states[0], second):
            with pytest.raises(KernelError, match="based in multiple countries"):
                apply_action(state, rebase, rules)
        assert rebase in rules.compiled
        assert (("p", "ireland"), ("p", "usa")) not in rules.table

    def test_a_group_is_checked_for_each_predicate_that_holds_it(self):
        """A group that passed one predicate's check is checked again when
        another predicate's group takes the same rows."""
        adopt = ActionRule(
            name="addChild",
            legal_ref="adopt",
            params=("C", "P"),
            fresh_params=frozenset(),
            precondition=(Literal("exists", ("C",)),),
            add_effects=(Literal("isChildOf", ("C", "P")),),
            del_effects=(),
        )
        # companies named like countries: isChildOf rows can equal based rows
        names = ("ireland", "p", "usa")
        rules = ActionRules(UNGUARDED + (adopt,), Domains(names, names, ()), ())
        state = initial_state(
            [make_fact("based", ["p", "usa"])], ["p", "ireland", "usa"], rules.table
        )
        for parent in ("ireland", "usa"):
            state = apply_action(
                state,
                GroundedAction("addChild", "adopt", (("C", "p"), ("P", parent))),
                rules,
            )
        bad = (("p", "ireland"), ("p", "usa"))
        assert state.rows("isChildOf") == bad
        rebase = GroundedAction(
            "addChild", "rebase", (("C", "p"), ("Country", "ireland"))
        )
        with pytest.raises(KernelError, match="based in multiple countries"):
            apply_action(state, rebase, rules)

    @pytest.mark.parametrize(
        "binding,ref,message",
        [
            ((("C", "p"), ("Country", "ireland")), "relocate", "no rule for action"),
            ((("C", "p"),), "rebase", "precondition of addChild[rebase](C=p) does not hold"),
            (
                (("C", "p"), ("Country", "Ireland")),
                "rebase",
                "precondition of addChild[rebase](C=p, Country=Ireland) does not hold",
            ),
        ],
        ids=["unknown-rule", "missing-binding", "variable-value"],
    )
    def test_a_malformed_action_fails_on_every_call_and_is_never_stored(
        self, corpus_ruleset, corpus_scenario, binding, ref, message
    ):
        states, _ = walk(corpus_ruleset, corpus_scenario, ())
        rules, _ = search_world(UNGUARDED, corpus_scenario)
        action = GroundedAction("addChild", ref, binding)
        for _ in range(2):
            with pytest.raises(KernelError, match=re.escape(message)):
                apply_action(states[0], action, rules)
        assert rules.compiled == {}


# ============================================================================
# Read sets and the search's tables
# ============================================================================


class RecordingGroups(tuple):
    """A state's groups that record every position they are read at."""

    def __new__(cls, groups):
        self = super().__new__(cls, groups)
        self.read = set()
        return self

    def __getitem__(self, index):
        self.read.add(index)
        return tuple.__getitem__(self, index)


def recording(state):
    """A stand-in for ``state`` whose groups record their reads: the joins,
    ``ground_rule`` and the pool scan read a state through ``groups`` only."""
    return SimpleNamespace(groups=RecordingGroups(state.groups))


def condition_reads(condition):
    """The positions of the groups of the state predicates that the
    condition's literals name, negated or not: all a compiled join of it
    may read."""
    return {
        GROUP[lit.predicate]
        for lit in condition
        if isinstance(lit, Literal) and lit.predicate in GROUP
    }


def key_reads(key, state):
    """The positions a table key function reads of ``state``'s groups."""
    groups = RecordingGroups(state.groups)
    key(groups)
    return groups.read


def walk_states(ruleset, scenario_doc, walks):
    return [state for choices in walks for state in walk(ruleset, scenario_doc, choices)[0]]


# a fresh parameter and no literal: grounding reads exists for the pool scan
SPAWN = ActionRule(
    name="addChild",
    legal_ref="spawn",
    params=("Child", "Country"),
    fresh_params=frozenset({"Child"}),
    precondition=(),
    add_effects=(Literal("exists", ("Child",)), Literal("based", ("Child", "Country"))),
    del_effects=(),
)

# walks from the corpus root reaching every rule, a used transfer and an
# exhausted pool
CORPUS_WALKS = ((), (0, 0, 0, 0), (5, 11, 3, 7), (9, 2, 40, 1, 17, 6), (30, 30, 30))


class TestReads:
    """A compiled condition reads the state's groups at its ``reads`` and
    nowhere else, so a result keyed on those groups is sound."""

    def test_corpus_action_rules_read_only_their_reads(
        self, corpus_ruleset, corpus_scenario
    ):
        rules, _ = search_world(corpus_ruleset.action_rules + (SPAWN,), corpus_scenario)
        pool = rules.pool
        states = walk_states(corpus_ruleset, corpus_scenario, CORPUS_WALKS)
        assert any(s.transfer is not None for s in states)
        assert any(len(s.companies()) == 4 for s in states)
        grounded_somewhere = set()
        for state in states:
            for position, (rule, key) in enumerate(zip(rules.ordered, rules.ground_keys)):
                view = recording(state)
                actions = ground_rule(view, rules, position)
                assert actions == ground_rule(state, rules, position)
                assert view.groups.read <= key_reads(key, state), rule.key()
                if actions:
                    grounded_somewhere.add(rule.key())
                join, free_params, domains, _ = rules.grounder(position)
                for free in itertools.product(*domains):
                    seed = dict(zip(free_params, free))
                    seed.update((p, pool[0]) for p in rule.fresh_params)
                    view = recording(state)
                    join.bindings(view, seed)
                    assert view.groups.read <= condition_reads(rule.precondition)
        assert grounded_somewhere == {rule.key() for rule in rules.ordered}

    def test_corpus_reductions_read_only_their_reads(
        self, corpus_ruleset, corpus_scenario
    ):
        states = walk_states(corpus_ruleset, corpus_scenario, CORPUS_WALKS)
        kinds = ("commercial", "royalty", "transfer")
        for state in states:
            companies = state.companies()
            # every transaction between existing companies: joins reach
            # their innermost loops
            patterns = {
                "transaction": list(itertools.product(kinds, companies, companies))
            }
            reads = set()
            for reduction in corpus_ruleset.reduction_rules:
                view = recording(state)
                held = projected(reduction.query(), view, SELF_VAR, patterns)
                assert held == projected(reduction.query(), state, SELF_VAR, patterns)
                assert view.groups.read <= condition_reads(reduction.query()), reduction.key()
                reads.update(condition_reads(reduction.query()))
            # the one function of all the reductions reads their groups alone
            applicable = compile_projection(
                [r.query() for r in corpus_ruleset.reduction_rules], SELF_VAR
            )
            view = recording(state)
            applicable(view.groups, kind_rows(patterns))
            assert view.groups.read <= reads

    @settings(max_examples=200, deadline=None)
    @given(random_cases(transactions=False))
    def test_random_conditions_read_only_their_reads(self, case):
        state, _, condition, seed = case
        join = CompiledCondition(condition, bound=seed)
        view = recording(state)
        rows = join.bindings(view, seed)
        assert rows == join.bindings(state, seed)
        assert view.groups.read <= condition_reads(condition)
        try:
            CompiledCondition(condition)
        except KernelError:  # a check on a variable no positive literal binds
            return
        reads = condition_reads(condition)
        for v in positive_variables(condition):
            view = recording(state)
            projected(condition, view, v)
            assert view.groups.read <= reads


def oracle_verdict(state, action, rule, pool):
    """``"applies"`` when ``action``, a grounding of ``rule``, applies in
    ``state`` by brute force, else the first of its conditions that fails:
    each fresh parameter binds the lowest unused pool id, a ``transferIP``
    needs the one-shot transfer unused, and the precondition has a solution
    under the action's binding."""
    binding = action.as_dict()
    unused = [cid for cid in pool if cid not in state.companies()]
    if any(not unused or binding[p] != unused[0] for p in rule.fresh_params):
        return "fresh id"
    if rule.name == "transferIP" and state.transfer is not None:
        return "transfer used"
    if not oracle_match(state, rule.precondition, binding):
        return "precondition"
    return "applies"


class TestApplicability:
    """``apply_action`` accepts exactly the actions the brute-force oracle
    finds applicable."""

    def test_apply_action_agrees_with_the_oracle(self, corpus_ruleset, corpus_scenario):
        rules, _ = search_world(corpus_ruleset.action_rules, corpus_scenario)
        states = walk_states(corpus_ruleset, corpus_scenario, CORPUS_WALKS)
        verdicts = set()
        # each state with the actions grounded there and at the state before
        for before, state in zip(states[:1] + states, states):
            grounded = applicable_actions(before, rules) + applicable_actions(state, rules)
            for action in dict.fromkeys(grounded):
                rule = rules.ordered[rules.index[action.name, action.legal_ref]]
                verdict = oracle_verdict(state, action, rule, rules.pool)
                verdicts.add(verdict)
                applied = outcome(lambda: apply_action(state, action, rules))
                assert (applied[0] == "state") == (verdict == "applies"), (
                    str(action), str(state), verdict,
                )
        assert verdicts == {"applies", "fresh id", "transfer used", "precondition"}


@pytest.fixture(scope="module")
def shared_corpus_world(corpus_ruleset, corpus_scenario):
    """One world and its root for every walk of the module, as one search
    keeps."""
    return search_world(corpus_ruleset.action_rules, corpus_scenario)


class TestSearchTables:
    """The tables of one ActionRules give what fresh tables give, however
    many states have filled them."""

    @given(choices=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_shared_tables_equal_fresh_rules(
        self, corpus_ruleset, corpus_scenario, shared_corpus_world, choices
    ):
        shared, state = shared_corpus_world

        def fresh():
            return search_world(corpus_ruleset.action_rules, corpus_scenario)[0]

        previous = []
        for choice in choices:
            acts = applicable_actions(state, shared)
            assert acts == applicable_actions(state, fresh())
            # the previous state's actions too: some of them no longer apply
            for act in acts + previous:
                assert outcome(lambda: apply_action(state, act, shared)) == outcome(
                    lambda: apply_action(state, act, fresh())
                )
            if not acts:
                break
            previous = acts
            state = apply_action(state, acts[choice % len(acts)], shared)

    def test_an_inapplicable_action_fails_on_every_call(
        self, corpus_ruleset, corpus_scenario
    ):
        rules, _ = search_world(corpus_ruleset.action_rules, corpus_scenario)
        states, _ = walk(corpus_ruleset, corpus_scenario, ())
        root = states[0]
        license_ = GroundedAction(
            "rentIP", "license", (("Ip", "ip1"), ("Licensor", "p"), ("Renter", "c1"))
        )
        incorporate = GroundedAction(
            "addChild", "USA-incorp", (("Child", "c1"), ("Parent", "p"))
        )
        with pytest.raises(KernelError, match="precondition .* does not hold"):
            apply_action(root, license_, rules)  # c1 does not exist yet
        with_c1 = apply_action(root, incorporate, rules)
        licensed = apply_action(with_c1, license_, rules)
        for _ in range(2):  # c1 rents ip1 already
            with pytest.raises(KernelError, match="precondition .* does not hold"):
                apply_action(licensed, license_, rules)
        with pytest.raises(KernelError, match="precondition .* does not hold"):
            apply_action(root, license_, rules)
        assert apply_action(with_c1, license_, rules) == licensed
        # c1 is the lowest unused pool id at the root, c2 once c1 exists
        skip = GroundedAction("addChild", "USA-incorp", (("Child", "c2"), ("Parent", "p")))
        sale = GroundedAction(
            "transferIP", "transfer", (("From", "p"), ("Ip", "ip1"), ("To", "c1"))
        )
        resale = GroundedAction(
            "transferIP", "transfer", (("From", "c1"), ("Ip", "ip1"), ("To", "p"))
        )
        sold = apply_action(with_c1, sale, rules)
        for _ in range(2):
            with pytest.raises(KernelError, match="precondition .* does not hold"):
                apply_action(root, skip, rules)
            with pytest.raises(KernelError, match="precondition .* does not hold"):
                apply_action(sold, resale, rules)  # the one-shot transfer is used
        assert apply_action(with_c1, skip, rules).rows("exists") == (("c1",), ("c2",), ("p",))

    def test_two_pools_in_two_worlds_equal_fresh_worlds(
        self, corpus_ruleset, corpus_scenario
    ):
        rules = corpus_ruleset.action_rules
        scenario = corpus_scenario.scenario
        pools = (scenario.company_pool, tuple(reversed(scenario.company_pool)))
        # one domain for both pools: they hold the same company ids
        domains = search_world(rules, corpus_scenario)[0].domains
        worlds = [ActionRules(rules, domains, pool) for pool in pools]
        root = initial_state(corpus_scenario.state.facts, corpus_scenario.state.companies)
        states = [root]
        for pool in pools:
            fresh = ActionRules(rules, domains, pool)
            states.append(apply_action(root, applicable_actions(root, fresh)[0], fresh))
        groundings = []
        for _ in range(2):  # the second round finds every table filled
            for world in worlds:
                for state in states:
                    acts = applicable_actions(state, world)
                    fresh = ActionRules(rules, domains, world.pool)
                    assert acts == applicable_actions(state, fresh)
                    groundings.append(acts)
        # the pools differ in the id a fresh parameter binds
        assert groundings[0] != groundings[len(states)]
        every = {act for acts in groundings for act in acts}
        for world in worlds:
            for state in states:
                for act in sorted(every):
                    fresh = ActionRules(rules, domains, world.pool)
                    assert outcome(lambda: apply_action(state, act, world)) == outcome(
                        lambda: apply_action(state, act, fresh)
                    )
