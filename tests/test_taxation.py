"""Tax assessment tests, anchored on a fully pinned layered-licensing fixture.

The fixture is the four-company arrangement the bundled corpus is built to
express: a US parent, an Irish subsidiary managed from Bermuda holding the
IP, a Dutch conduit, and a German market subsidiary.  Expected figures were
recomputed by hand from the corpus rule text and are asserted exactly.
"""

from __future__ import annotations

import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophound.economy import (
    company_flows,
    earning_companies,
    is_multinationally_complete,
    settle,
)
from loophound.kernel import (
    GroundedAction,
    KernelError,
    Literal,
    State,
    initial_state,
    make_fact,
)
from loophound.taxation import (
    BASE_IDENTITY,
    RATE_IDENTITY,
    SELF_VAR,
    EvaluationMemo,
    LinExpr,
    ReductionRule,
    TaxAssessment,
    TaxationError,
    applicability_map,
    applicable_reductions,
    assess,
    choose_reduction,
    evaluate_state,
    net_profit,
    residence_countries,
    transaction_patterns,
)
from conftest import walk
from oracles import oracle_match


# ------------------------------------------------------------------ fixture


@pytest.fixture(scope="module")
def sandwich(corpus_ruleset, corpus_scenario):
    """Final state and action history of the layered licensing arrangement.

    p (usa) incorporated c1 (ireland, managed bermuda), c2 (netherlands),
    c3 (germany); sold the IP to c1; c1 licenses c2; c2 sub-licenses c3
    and p.  Every grounding argument is pinned explicitly.
    """
    facts = [
        make_fact("based", ("p", "usa")),
        make_fact("based", ("c1", "ireland")),
        make_fact("managed", ("c1", "bermuda")),
        make_fact("based", ("c2", "netherlands")),
        make_fact("based", ("c3", "germany")),
        make_fact("isChildOf", ("c1", "p")),
        make_fact("isChildOf", ("c2", "p")),
        make_fact("isChildOf", ("c3", "p")),
        make_fact("ownsIP", ("c1", "ip1")),
        make_fact("rentsIP", ("c1", "c2", "ip1")),
        make_fact("rentsIP", ("c2", "c3", "ip1")),
        make_fact("rentsIP", ("c2", "p", "ip1")),
    ]
    state = initial_state(facts, ("p", "c1", "c2", "c3"))
    actions = (
        GroundedAction(
            "addChild", "I-incorp", (("Child", "c1"), ("Parent", "p"))
        ),
        GroundedAction(
            "addChild",
            "EU-incorp",
            (("Child", "c2"), ("Country", "netherlands"), ("Parent", "p")),
        ),
        GroundedAction(
            "addChild",
            "EU-incorp",
            (("Child", "c3"), ("Country", "germany"), ("Parent", "p")),
        ),
        GroundedAction(
            "transferIP", "transfer", (("From", "p"), ("Ip", "ip1"), ("To", "c1"))
        ),
        GroundedAction(
            "rentIP",
            "license",
            (("Ip", "ip1"), ("Licensor", "c1"), ("Renter", "c2")),
        ),
        GroundedAction(
            "rentIP",
            "sub-license",
            (("Ip", "ip1"), ("Licensor", "c2"), ("Renter", "c3")),
        ),
        GroundedAction(
            "rentIP",
            "sub-license",
            (("Ip", "ip1"), ("Licensor", "c2"), ("Renter", "p")),
        ),
    )
    txns, assessments, profit = evaluate_state(
        state,
        corpus_scenario.scenario,
        corpus_ruleset.reduction_rules,
        corpus_ruleset.rates(),
        EvaluationMemo(),
        actions,
    )
    by_company = {a.company: a for a in assessments}
    return state, actions, txns, assessments, by_company, profit


class TestSandwichFixture:
    def test_group_profit_exact(self, sandwich):
        *_, profit = sandwich
        assert profit == 1100.125

    def test_transaction_ledger(self, sandwich):
        _, _, txns, *_ = sandwich
        rows = [(t.kind, t.sender, t.receiver, t.amount) for t in txns]
        assert rows == [
            ("commercial", "ireland", "c1", 30.0),
            ("commercial", "netherlands", "c2", 100.0),
            ("commercial", "germany", "c3", 300.0),
            ("commercial", "usa", "p", 700.0),
            ("royalty", "c2", "c1", 900.0),
            ("royalty", "c3", "c2", 270.0),
            ("royalty", "p", "c2", 630.0),
            ("transfer", "c1", "p", 50.0),
        ]
        assert [t.id for t in txns] == list(range(8))
        # the transfer was the fourth action, so it settles at step 4
        assert txns[-1].time == 4

    def test_haven_holding_company(self, sandwich):
        _, _, _, _, by_company, _ = sandwich
        a = by_company["c1"]
        # management seat moves the assessment to the zero-rate haven
        assert a.country == "bermuda"
        assert a.base == 930.0
        assert a.rate == 0.0
        assert a.applied_reduction is None
        assert a.applied_exemption is None
        assert a.tax_due == 0.0

    def test_dutch_conduit(self, sandwich):
        _, _, _, _, by_company, _ = sandwich
        a = by_company["c2"]
        assert a.country == "netherlands"
        assert (a.base, a.reduced_base) == (1000.0, 100.0)
        assert (a.rate, a.reduced_rate) == (0.25, 0.025)
        assert a.applied_reduction == "DCITA1969"
        assert a.applied_exemption == "A8cNLctl1969"
        assert a.tax_due == 2.5

    def test_german_market_subsidiary(self, sandwich):
        _, _, _, _, by_company, _ = sandwich
        a = by_company["c3"]
        assert a.country == "germany"
        assert (a.base, a.reduced_base) == (300.0, 30.0)
        assert (a.rate, a.reduced_rate) == (0.3, 0.3)
        assert a.applied_reduction == "2003/49/EC"
        assert a.applied_exemption is None
        assert a.tax_due == 9.0

    def test_us_parent(self, sandwich):
        _, _, _, _, by_company, _ = sandwich
        a = by_company["p"]
        assert a.country == "usa"
        assert (a.base, a.reduced_base) == (750.0, 75.0)
        assert a.rate == 0.35
        assert a.reduced_rate == 0.7 * 0.35
        assert a.applied_reduction == "IRC-Sec162"
        assert a.applied_exemption == "check-the-box"
        assert a.tax_due == 75.0 * (0.7 * 0.35)

    def test_assessment_identities(self, sandwich):
        _, _, _, assessments, _, _ = sandwich
        for a in assessments:
            assert a.tax_due == a.reduced_base * a.reduced_rate
            assert a.reduced_base <= a.base
            assert a.reduced_rate <= a.rate
            if a.applied_reduction is None:
                assert a.reduced_base == a.base
            else:
                assert a.reduced_base < a.base
            if a.applied_exemption is None:
                assert a.reduced_rate == a.rate
            else:
                assert a.reduced_rate < a.rate

    def test_applied_refs(self, sandwich):
        _, _, _, _, by_company, _ = sandwich
        assert by_company["c2"].applied_refs() == [
            ("DCITA1969", "deductible"),
            ("A8cNLctl1969", "exemption"),
        ]
        assert by_company["c1"].applied_refs() == []

    def test_profit_is_market_inflow_minus_tax(self, sandwich):
        _, _, txns, assessments, _, profit = sandwich
        market = sum(t.amount for t in txns if t.kind == "commercial")
        taxes = sum(a.tax_due for a in assessments)
        assert profit == pytest.approx(market - taxes, rel=1e-12)

    def test_treaty_relief_applicable_but_beaten(
        self, sandwich, corpus_ruleset
    ):
        """USA-wte applies to p yet loses to the cheaper election rate."""
        state, _, txns, _, by_company, _ = sandwich
        patterns = {"transaction": transaction_patterns(txns)}
        reductions = corpus_ruleset.reduction_rules
        amap = applicability_map(state, patterns, reductions)
        assert "USA-wte" in [reductions[i].legal_ref for i in amap["p"]]
        assert by_company["p"].applied_exemption == "check-the-box"

    def test_applicability_map_matches_seeded_checks(
        self, sandwich, corpus_ruleset
    ):
        state, _, txns, *_ = sandwich
        patterns = {"transaction": transaction_patterns(txns)}
        amap = applicability_map(state, patterns, corpus_ruleset.reduction_rules)
        assert set(amap) <= set(state.companies())
        for company in state.companies():
            expected = tuple(
                position
                for position, rule in enumerate(corpus_ruleset.reduction_rules)
                if oracle_match(state, rule.condition, {SELF_VAR: company}, patterns)
            )
            assert amap.get(company, ()) == expected, company


# ---------------------------------------------------------------- residence


class TestResidence:
    def test_management_seat_wins(self):
        state = initial_state(
            [
                make_fact("based", ("c1", "ireland")),
                make_fact("managed", ("c1", "bermuda")),
            ],
            ("c1",),
        )
        assert residence_countries(state)["c1"] == "bermuda"

    def test_incorporation_fallback(self):
        state = initial_state([make_fact("based", ("c1", "ireland"))], ("c1",))
        assert residence_countries(state)["c1"] == "ireland"

    def test_resident_nowhere_raises(self):
        state = initial_state([], ("c1",))
        with pytest.raises(TaxationError, match="resident nowhere"):
            residence_countries(state)


# ---------------------------------------------------- candidate selection


def applicable_without_transactions(state, company, reductions):
    """The reductions applicable to ``company`` in ``state``, with no ledger."""
    amap = applicability_map(state, {"transaction": []}, reductions)
    return [reductions[i] for i in amap.get(company, ())]


def rule(
    ref: str, kind: str, condition=(Literal("exists", (SELF_VAR,)),), **expr
) -> ReductionRule:
    if kind == "deductible":
        return ReductionRule(
            legal_ref=ref,
            kind=kind,
            condition=condition,
            new_base=LinExpr(**expr) if expr else BASE_IDENTITY,
        )
    return ReductionRule(
        legal_ref=ref,
        kind=kind,
        condition=condition,
        new_rate=LinExpr(**expr) if expr else RATE_IDENTITY,
    )


ROYALTY_PAID = Literal("transaction", ("royalty", SELF_VAR, "R"))

# (kind, condition, expressions) of malformed reductions, with the problem named
MALFORMED_REDUCTIONS = {
    "unknown-kind": ("credit", (ROYALTY_PAID,), {}, "reduction kind must be one of"),
    "no-self": (
        "deductible",
        (Literal("based", ("C", "usa")),),
        {},
        "must mention the filing company Self",
    ),
    "unknown-predicate": (
        "deductible",
        (ROYALTY_PAID, Literal("resides", (SELF_VAR,))),
        {},
        "unknown predicate 'resides'",
    ),
    "arity": (
        "deductible",
        (Literal("based", (SELF_VAR,)),),
        {},
        "based expects 2 argument",
    ),
    "positive-wildcard": (
        "deductible",
        (Literal("based", (SELF_VAR, "_")),),
        {},
        "wildcards are only allowed in negated literals",
    ),
    "transaction-arity": (
        "deductible",
        (Literal("transaction", ("royalty", SELF_VAR)),),
        {},
        "transaction pattern takes (kind, sender, receiver)",
    ),
    "transaction-kind": (
        "deductible",
        (Literal("transaction", ("royalti", SELF_VAR, "R")),),
        {},
        "transaction kind must be one of",
    ),
    "deductible-rewrites-rate": (
        "deductible",
        (ROYALTY_PAID,),
        {"new_rate": LinExpr(rate_coef=0.5)},
        "a deductible may only rewrite the base",
    ),
    "exemption-rewrites-base": (
        "exemption",
        (ROYALTY_PAID,),
        {"new_base": LinExpr(base_coef=0.5)},
        "an exemption may only rewrite the rate",
    ),
}


class TestReductionRuleValidation:
    @pytest.mark.parametrize(
        "kind,condition,expressions,message",
        MALFORMED_REDUCTIONS.values(),
        ids=MALFORMED_REDUCTIONS.keys(),
    )
    def test_malformed_rule_rejected_when_built(
        self, kind, condition, expressions, message
    ):
        with pytest.raises(KernelError, match=re.escape(message)):
            ReductionRule(legal_ref="r", kind=kind, condition=condition, **expressions)

    def test_one_error_names_every_problem(self):
        with pytest.raises(KernelError) as info:
            ReductionRule(
                legal_ref="r",
                kind="exemption",
                condition=(Literal("transaction", ("royalti", "X", "Y")),),
                new_base=LinExpr(base_coef=0.5),
            )
        message = str(info.value)
        assert message.startswith("exemption/r: transaction kind must be one of")
        assert "must mention the filing company Self" in message
        assert "an exemption may only rewrite the rate" in message

    @pytest.mark.parametrize("kind", ["commercial", "royalty", "transfer", "K"])
    def test_valid_or_variable_transaction_kind_accepted(self, kind):
        condition = (Literal("transaction", (kind, SELF_VAR, "R")),)
        rule = ReductionRule(legal_ref="r", kind="deductible", condition=condition)
        assert rule.condition == condition


class TestChooseReduction:
    def test_lowest_tax_wins(self):
        a = (rule("zz", "deductible", base_coef=0.1), 10.0, 0.3)
        b = (rule("aa", "deductible", base_coef=0.5), 50.0, 0.3)
        assert choose_reduction([a, b]) is a

    def test_tie_breaks_on_legal_reference(self):
        a = (rule("beta", "exemption", rate_coef=0.5), 100.0, 0.15)
        b = (rule("alpha", "exemption", rate_coef=0.5), 100.0, 0.15)
        assert choose_reduction([a, b]) is b

    def test_empty_candidates(self):
        assert choose_reduction([]) is None


class TestAdmission:
    def setup_state(self):
        return initial_state([make_fact("based", ("a0", "usa"))], ("a0",))

    def admitted(self, reduction, caplog):
        state = self.setup_state()
        with caplog.at_level(logging.WARNING, logger="loophound.taxation"):
            out = applicable_reductions(
                "a0", 100.0, 0.35,
                applicable_without_transactions(state, "a0", (reduction,)),
            )
        return out, caplog.text

    def test_negative_base_rejected(self, caplog):
        bad = rule("neg", "deductible", base_coef=1.0, const=-1000.0)
        out, logs = self.admitted(bad, caplog)
        assert out == []
        assert "negative new base" in logs

    def test_rate_outside_unit_interval_rejected(self, caplog):
        bad = rule("wild", "exemption", rate_coef=4.0)
        out, logs = self.admitted(bad, caplog)
        assert out == []
        assert "outside [0, 1]" in logs

    def test_tax_increasing_base_rejected(self, caplog):
        bad = rule("up", "deductible", base_coef=1.0, const=5.0)
        out, logs = self.admitted(bad, caplog)
        assert out == []
        assert "increase the tax due" in logs

    def test_valid_candidate_admitted(self, caplog):
        good = rule("ok", "deductible", base_coef=0.1)
        out, _ = self.admitted(good, caplog)
        assert len(out) == 1
        got_rule, new_base, new_rate = out[0]
        assert got_rule.legal_ref == "ok"
        assert new_base == 0.1 * 100.0
        assert new_rate == 0.35

    def test_condition_gates_applicability(self, caplog):
        gated = ReductionRule(
            legal_ref="gated",
            kind="deductible",
            condition=(Literal("based", (SELF_VAR, "ireland")),),
            new_base=LinExpr(base_coef=0.1),
        )
        out, _ = self.admitted(gated, caplog)
        assert out == []


class TestStrictImprovement:
    def test_identity_deductible_not_applied(self):
        state = initial_state([make_fact("based", ("a0", "usa"))], ("a0",))
        identity = rule("noop", "deductible")  # new_base stays Base
        a = assess(
            "a0", "usa",
            applicable_without_transactions(state, "a0", (identity,)),
            {"usa": 0.35}, {},
        )
        assert a.applied_reduction is None
        assert a.reduced_base == a.base

    def test_identity_exemption_not_applied(self):
        state = initial_state([make_fact("based", ("a0", "usa"))], ("a0",))
        identity = rule("noop", "exemption")  # new_rate stays Rate
        a = assess(
            "a0", "usa",
            applicable_without_transactions(state, "a0", (identity,)),
            {"usa": 0.35}, {},
        )
        assert a.applied_exemption is None
        assert a.reduced_rate == a.rate

    def test_channels_are_independent(self):
        """A deductible rewrites only the base, an exemption only the rate."""
        state = initial_state([make_fact("based", ("a0", "usa"))], ("a0",))
        flows = {"a0": (200.0, 0.0)}
        ded = rule("d", "deductible", base_coef=0.5)
        ex = rule("e", "exemption", rate_coef=0.5)
        a = assess(
            "a0", "usa",
            applicable_without_transactions(state, "a0", (ded, ex)),
            {"usa": 0.4}, flows,
        )
        assert (a.base, a.reduced_base) == (200.0, 100.0)
        assert (a.rate, a.reduced_rate) == (0.4, 0.2)
        assert a.applied_reduction == "d"
        assert a.applied_exemption == "e"
        assert a.tax_due == 100.0 * 0.2


class TestAssessErrors:
    def test_missing_statutory_rate(self):
        with pytest.raises(TaxationError, match="no statutory rate"):
            assess("a0", "usa", (), {"germany": 0.3}, {})


class TestNetProfit:
    def test_intra_group_payments_cancel(self, sandwich):
        _, _, txns, assessments, _, _ = sandwich
        flows = company_flows(txns)
        total = sum(fin - fout for fin, fout in flows.values())
        market = sum(t.amount for t in txns if t.kind == "commercial")
        assert total == pytest.approx(market, rel=1e-12)
        recomputed = net_profit(flows, assessments)
        assert recomputed == 1100.125


# ------------------------------------------------------ one-pass evaluation


def composed_evaluation(state, scenario, reductions, rates, actions):
    """Evaluation composed from its parts, rule by rule, without the one pass:
    settle, then each rule's applicability to each company on its own, then
    candidate choice, then profit."""
    ledger = settle(state, scenario, actions)
    flows = company_flows(ledger)
    patterns = {"transaction": transaction_patterns(ledger)}
    managed = {f.args[0]: f.args[1] for f in state.facts() if f.predicate == "managed"}
    based = {f.args[0]: f.args[1] for f in state.facts() if f.predicate == "based"}
    assessments = []
    for company in state.companies():
        country = managed.get(company, based.get(company))
        base, _ = flows.get(company, (0.0, 0.0))
        rate = float(rates[country])
        candidates = []
        for rule in reductions:
            if company in rule.join.project(state, SELF_VAR, patterns):
                candidates += applicable_reductions(company, base, rate, [rule])
        deductible = choose_reduction(
            [c for c in candidates if c[0].kind == "deductible"]
        )
        exemption = choose_reduction(
            [c for c in candidates if c[0].kind == "exemption"]
        )
        reduced_base, applied_reduction = base, None
        if deductible is not None and deductible[1] < base:
            reduced_base, applied_reduction = deductible[1], deductible[0].legal_ref
        reduced_rate, applied_exemption = rate, None
        if exemption is not None and exemption[2] < rate:
            reduced_rate, applied_exemption = exemption[2], exemption[0].legal_ref
        assessments.append(
            TaxAssessment(
                company=company,
                country=country,
                base=base,
                rate=rate,
                reduced_base=reduced_base,
                reduced_rate=reduced_rate,
                applied_reduction=applied_reduction,
                applied_exemption=applied_exemption,
                tax_due=reduced_base * reduced_rate,
            )
        )
    covered = {country for _, country in earning_companies(state, scenario)}
    complete = all(c in covered for c in scenario.non_haven_countries())
    return ledger, assessments, net_profit(flows, assessments), complete


class TestEvaluationMemo:
    def test_seat_and_parent_facts_share_a_ledger(
        self, sandwich, corpus_ruleset, corpus_scenario
    ):
        """``managed`` and ``isChildOf`` facts leave the ledger as it is, so
        one ledger serves all three states; the seat moves c1's residence,
        so its return is not shared."""
        state, actions, *_ = sandwich
        scenario = corpus_scenario.scenario
        reductions = corpus_ruleset.reduction_rules
        rates = corpus_ruleset.rates()
        variants = [state] + [
            initial_state(
                [f for f in state.facts() if f.predicate != dropped], state.companies()
            )
            for dropped in ("managed", "isChildOf")
        ]
        memo = EvaluationMemo()
        results = [
            evaluate_state(v, scenario, reductions, rates, memo, actions)
            for v in variants
        ]
        assert len(memo.ledgers) == 1
        assert all(r[0] is results[0][0] for r in results)
        for variant, result in zip(variants, results):
            fresh = evaluate_state(
                variant, scenario, reductions, rates, EvaluationMemo(), actions
            )
            assert result == fresh
        seated = {a.company: a for a in results[0][1]}
        unseated = {a.company: a for a in results[1][1]}
        assert (seated["c1"].country, unseated["c1"].country) == ("bermuda", "ireland")
        assert len(memo.returns) > len(state.companies())

    def test_step_count_and_transfer_step_key_the_ledger(
        self, sandwich, corpus_ruleset, corpus_scenario
    ):
        """Equal facts settle to different ledgers when the step count or
        the step of the transfer differs: both set transaction times."""
        state, actions, *_ = sandwich
        scenario = corpus_scenario.scenario
        reductions = corpus_ruleset.reduction_rules
        rates = corpus_ruleset.rates()
        later = State(
            groups=state.groups,
            step_count=state.step_count + 1,
            transfer_used=state.transfer_used,
        )
        transfer_first = (actions[3],) + actions[:3] + actions[4:]
        cases = [(state, actions), (later, actions), (state, transfer_first)]
        memo = EvaluationMemo()
        for case_state, case_actions in cases:
            result = evaluate_state(
                case_state, scenario, reductions, rates, memo, case_actions
            )
            fresh = evaluate_state(
                case_state, scenario, reductions, rates, EvaluationMemo(), case_actions
            )
            assert result == fresh
        assert len(memo.ledgers) == 3


class TestOnePassEvaluation:
    @given(choices=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_composition_of_its_parts(
        self, corpus_ruleset, corpus_scenario, choices
    ):
        states, actions = walk(corpus_ruleset, corpus_scenario, choices)
        scenario = corpus_scenario.scenario
        reductions = corpus_ruleset.reduction_rules
        rates = corpus_ruleset.rates()
        state = states[-1]
        transactions, assessments, p = evaluate_state(
            state, scenario, reductions, rates, EvaluationMemo(), actions
        )
        ledger, expected, expected_p, complete = composed_evaluation(
            state, scenario, reductions, rates, actions
        )
        assert transactions == ledger
        assert assessments == expected
        assert p == expected_p
        assert is_multinationally_complete(transactions, scenario) == complete
