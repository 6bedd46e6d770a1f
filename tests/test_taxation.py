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
    Ledgers,
    company_flows,
    earning_companies,
    is_multinationally_complete,
    settle,
)
from loophound.join import compile_projection
from loophound.kernel import (
    WILDCARD,
    Comparison,
    GroundedAction,
    KernelError,
    Literal,
    State,
    Transfer,
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
    residence_countries,
)
from conftest import walk
from oracles import evaluate_from_scratch, kind_rows, oracle_match, path_transfer


# ------------------------------------------------------------------ fixture


def corpus_memo(ruleset, scenario_doc):
    """A fresh memo for the corpus reductions and rates over ``scenario_doc``."""
    return EvaluationMemo(
        scenario_doc.scenario, ruleset.reduction_rules, ruleset.rates()
    )


# p sold ip1 to c1 in the fourth action of the sandwich's path
SANDWICH_TRANSFER = Transfer(3, seller="p", buyer="c1")


def sold(state, transfer=SANDWICH_TRANSFER):
    """``state`` carrying ``transfer``, the sale on its path."""
    return State(state.groups, state.step_count, transfer)


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
    state = sold(initial_state(facts, ("p", "c1", "c2", "c3")))
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
    ledger, assessments, profit = evaluate_state(
        state, corpus_memo(corpus_ruleset, corpus_scenario)
    )
    txns = ledger.transactions
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
        self, sandwich, corpus_ruleset, corpus_scenario
    ):
        """USA-wte applies to p yet loses to the cheaper election rate."""
        state, _, _, _, by_company, _ = sandwich
        memo = corpus_memo(corpus_ruleset, corpus_scenario)
        ledger = settle(state, corpus_scenario.scenario, Ledgers())
        reductions = corpus_ruleset.reduction_rules
        amap = applicability_map(state, ledger, memo)
        assert "USA-wte" in [reductions[i].legal_ref for i in amap["p"]]
        assert by_company["p"].applied_exemption == "check-the-box"

    def test_applicability_map_matches_seeded_checks(
        self, sandwich, corpus_ruleset, corpus_scenario
    ):
        state, _, txns, *_ = sandwich
        patterns = {"transaction": [(t.kind, t.sender, t.receiver) for t in txns]}
        memo = corpus_memo(corpus_ruleset, corpus_scenario)
        ledger = settle(state, corpus_scenario.scenario, Ledgers())
        amap = applicability_map(state, ledger, memo)
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
    applicable = compile_projection([r.query() for r in reductions], SELF_VAR)
    amap = applicable(state.groups, ((), (), ()))
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


    def test_self_only_in_a_negated_literal_ranges_over_the_companies(self):
        """``exists(Self)`` binds Self when no positive literal does, even
        next to a positive literal without it."""
        not_american = ReductionRule(
            legal_ref="r",
            kind="deductible",
            condition=(
                Literal("isChildOf", ("C", "P")),
                Literal("based", (SELF_VAR, "usa"), negated=True),
            ),
            new_base=LinExpr(base_coef=0.5),
        )
        query = not_american.query()
        assert query == (Literal("exists", (SELF_VAR,)), *not_american.condition)
        state = initial_state(
            [
                make_fact("based", ("a", "usa")),
                make_fact("based", ("b", "ireland")),
                make_fact("based", ("c", "ireland")),
                make_fact("isChildOf", ("b", "a")),
            ],
            ("a", "b", "c"),
        )
        applicable = compile_projection([query], SELF_VAR)
        assert applicable(state.groups, ((), (), ())) == {"b": (0,), "c": (0,)}


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

    def test_rate_one_is_inside_the_unit_interval(self, caplog):
        one = rule("one", "exemption", const=1.0)
        with caplog.at_level(logging.WARNING, logger="loophound.taxation"):
            out = applicable_reductions("a0", 100.0, 1.0, [one])
        assert out == [(one, 100.0, 1.0)]
        assert "outside [0, 1]" not in caplog.text

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
            "a0", "usa", 0.0,
            applicable_without_transactions(state, "a0", (identity,)),
            {"usa": 0.35},
        )
        assert a.applied_reduction is None
        assert a.reduced_base == a.base

    def test_identity_exemption_not_applied(self):
        state = initial_state([make_fact("based", ("a0", "usa"))], ("a0",))
        identity = rule("noop", "exemption")  # new_rate stays Rate
        a = assess(
            "a0", "usa", 0.0,
            applicable_without_transactions(state, "a0", (identity,)),
            {"usa": 0.35},
        )
        assert a.applied_exemption is None
        assert a.reduced_rate == a.rate

    def test_deductible_to_a_zero_base_applies(self):
        zero = rule("zero", "deductible", const=0.0)  # new_base: 0
        a = assess("a0", "usa", 200.0, [zero], {"usa": 0.35})
        assert (a.reduced_base, a.applied_reduction, a.tax_due) == (0.0, "zero", 0.0)

    def test_channels_are_independent(self):
        """A deductible rewrites only the base, an exemption only the rate."""
        state = initial_state([make_fact("based", ("a0", "usa"))], ("a0",))
        ded = rule("d", "deductible", base_coef=0.5)
        ex = rule("e", "exemption", rate_coef=0.5)
        a = assess(
            "a0", "usa", 200.0,
            applicable_without_transactions(state, "a0", (ded, ex)),
            {"usa": 0.4},
        )
        assert (a.base, a.reduced_base) == (200.0, 100.0)
        assert (a.rate, a.reduced_rate) == (0.4, 0.2)
        assert a.applied_reduction == "d"
        assert a.applied_exemption == "e"
        assert a.tax_due == 100.0 * 0.2


class TestAssessErrors:
    def test_missing_statutory_rate(self):
        with pytest.raises(TaxationError, match="no statutory rate"):
            assess("a0", "usa", 0.0, (), {"germany": 0.3})


class TestNetProfit:
    def test_intra_group_payments_cancel(self, sandwich, corpus_scenario):
        state, _, txns, assessments, _, _ = sandwich
        flows = company_flows(txns)
        total = sum(fin - fout for fin, fout in flows.values())
        market = sum(t.amount for t in txns if t.kind == "commercial")
        assert total == pytest.approx(market, rel=1e-12)
        # the ledger's market sum, less each tax in assessment order
        recomputed = settle(state, corpus_scenario.scenario, Ledgers()).market
        for a in assessments:
            recomputed -= a.tax_due
        assert recomputed == 1100.125


# ------------------------------------------------------ one-pass evaluation


def composed_evaluation(state, scenario, reductions, rates):
    """Evaluation composed from its parts, rule by rule, without the one pass:
    a ledger settled anew, then each rule's applicability on its own, from a
    projection of its condition alone, then candidate choice, then profit."""
    ledger = settle(state, scenario, Ledgers()).transactions
    flows = company_flows(ledger)
    rows = kind_rows({"transaction": [(t.kind, t.sender, t.receiver) for t in ledger]})
    holders = [
        compile_projection([rule.query()], SELF_VAR)(state.groups, rows) for rule in reductions
    ]
    managed = {f.args[0]: f.args[1] for f in state.facts() if f.predicate == "managed"}
    based = {f.args[0]: f.args[1] for f in state.facts() if f.predicate == "based"}
    assessments = []
    for company in state.companies():
        country = managed.get(company, based.get(company))
        base, _ = flows.get(company, (0.0, 0.0))
        rate = float(rates[country])
        candidates = []
        for rule, held in zip(reductions, holders):
            if company in held:
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
    profit = 0.0
    for company in sorted(flows):
        fin, fout = flows[company]
        profit += fin - fout
    for a in assessments:
        profit -= a.tax_due
    covered = {country for _, country in earning_companies(state, scenario)}
    complete = all(
        c in covered for c in scenario.countries if c not in scenario.tax_havens
    )
    return ledger, assessments, profit, complete


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
            sold(
                initial_state(
                    [f for f in state.facts() if f.predicate != dropped],
                    state.companies(),
                )
            )
            for dropped in ("managed", "isChildOf")
        ]
        memo = EvaluationMemo(scenario, reductions, rates)
        results = [evaluate_state(v, memo) for v in variants]
        assert len(memo.ledgers) == 1
        assert all(r[0] is results[0][0] for r in results)
        for variant, result in zip(variants, results):
            fresh = evaluate_state(variant, EvaluationMemo(scenario, reductions, rates))
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
            transfer=state.transfer,
        )
        transfer_first = sold(state, SANDWICH_TRANSFER._replace(step=0))
        memo = EvaluationMemo(scenario, reductions, rates)
        for case_state in (state, later, transfer_first):
            result = evaluate_state(case_state, memo)
            fresh = evaluate_state(case_state, EvaluationMemo(scenario, reductions, rates))
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
        assert state.transfer == path_transfer(corpus_ruleset, actions)
        ledger, assessments, p = evaluate_state(
            state, EvaluationMemo(scenario, reductions, rates)
        )
        transactions, expected, expected_p, complete = composed_evaluation(
            state, scenario, reductions, rates
        )
        assert ledger.transactions == transactions
        assert assessments == expected
        assert p == expected_p
        assert ledger.complete == complete
        assert is_multinationally_complete(transactions, scenario) == complete
        assert (transactions, assessments, p, complete) == evaluate_from_scratch(
            state, scenario, reductions, rates
        )


# items a generated reduction condition draws from: transaction literals of
# every kind, of a variable kind and negated, and literals over the state
GENERATED_ITEMS = (
    Literal("transaction", ("royalty", SELF_VAR, "R")),
    Literal("transaction", ("commercial", "M", SELF_VAR)),
    Literal("transaction", ("transfer", SELF_VAR, "R")),
    Literal("transaction", ("transfer", "R", SELF_VAR)),
    Literal("transaction", ("K", "R", SELF_VAR)),
    Literal("transaction", ("transfer", SELF_VAR, WILDCARD), negated=True),
    Literal("transaction", ("royalty", WILDCARD, SELF_VAR), negated=True),
    Literal("transaction", ("commercial", "usa", SELF_VAR), negated=True),
    Literal("based", (SELF_VAR, "C")),
    Literal("based", ("R", "C")),
    Literal("managed", (SELF_VAR, WILDCARD), negated=True),
    Literal("managed", ("R", "bermuda"), negated=True),
    Literal("isChildOf", (SELF_VAR, "P")),
    Literal("ownsIP", (SELF_VAR, WILDCARD), negated=True),
    Comparison("C", "!=", "usa"),
    Comparison("R", "!=", SELF_VAR),
)


@st.composite
def generated_reductions(draw):
    """One to four reductions whose conditions are drawn from
    ``GENERATED_ITEMS``; a condition whose checks no positive literal binds
    is drawn again."""
    items = st.lists(st.sampled_from(GENERATED_ITEMS), min_size=1, max_size=4, unique=True)
    count, rules = draw(st.integers(min_value=1, max_value=4)), []
    while len(rules) < count:
        condition = tuple(draw(items))
        kind = draw(st.sampled_from(["deductible", "exemption"]))
        coef = {"base_coef" if kind == "deductible" else "rate_coef": 0.5}
        try:
            rules.append(rule(f"g{len(rules)}", kind, condition, **coef))
        except KernelError:  # no Self, or a check no positive literal binds
            continue
    return tuple(rules)


class TestGeneratedReductions:
    """The one generated applicability function, and the evaluation built on
    it, agree with each condition's own bindings on generated rules."""

    @given(
        reductions=generated_reductions(),
        choices=st.lists(st.integers(min_value=0), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_evaluation_equals_the_oracle(
        self, corpus_ruleset, corpus_scenario, reductions, choices
    ):
        states, actions = walk(corpus_ruleset, corpus_scenario, choices)
        scenario = corpus_scenario.scenario
        rates = corpus_ruleset.rates()
        state = states[-1]
        assert state.transfer == path_transfer(corpus_ruleset, actions)
        memo = EvaluationMemo(scenario, reductions, rates)
        ledger, assessments, p = evaluate_state(state, memo)
        assert (ledger.transactions, assessments, p, ledger.complete) == (
            evaluate_from_scratch(state, scenario, reductions, rates)
        )
        patterns = {
            "transaction": [(t.kind, t.sender, t.receiver) for t in ledger.transactions]
        }
        amap = applicability_map(state, ledger, memo)
        for company in state.companies():
            expected = tuple(
                i
                for i, reduction in enumerate(reductions)
                if oracle_match(state, reduction.query(), {SELF_VAR: company}, patterns)
            )
            assert amap.get(company, ()) == expected

    def test_negated_transaction_over_an_empty_relation_holds(self, sandwich):
        state, *_ = sandwich
        no_sale = rule(
            "no-sale", "deductible",
            (Literal("transaction", ("transfer", SELF_VAR, WILDCARD), negated=True),),
            base_coef=0.5,
        )
        sold = rule(
            "sold", "deductible",
            (Literal("transaction", ("transfer", SELF_VAR, "R")),),
            base_coef=0.5,
        )
        applicable = compile_projection([no_sale.query(), sold.query()], SELF_VAR)
        companies = set(state.companies())
        # no transfer in the ledger: the negated literal holds for everyone,
        # the positive one is skipped
        assert applicable(state.groups, ((), (), ())) == dict.fromkeys(companies, (0,))
        # c1 paid p for the IP
        paid = applicable(state.groups, ((), (), (("c1", "p"),)))
        assert paid == {**dict.fromkeys(companies - {"c1"}, (0,)), "c1": (1,)}

    def test_negated_transaction_of_a_wildcard_kind(self):
        pays_nothing = rule(
            "quiet", "deductible",
            (
                Literal("exists", (SELF_VAR,)),
                Literal("transaction", (WILDCARD, SELF_VAR, WILDCARD), negated=True),
            ),
            base_coef=0.5,
        )
        state = initial_state(
            [make_fact("based", ("a", "usa")), make_fact("based", ("b", "usa"))], ("a", "b")
        )
        applicable = compile_projection([pays_nothing.query()], SELF_VAR)
        # a pays b a royalty: only b pays nothing
        assert applicable(state.groups, ((), (("a", "b"),), ())) == {"b": (0,)}

    def test_commercial_and_transfer_kinds_and_no_transaction_literal(
        self, sandwich, corpus_scenario
    ):
        state, *_ = sandwich
        earns_at_home = rule(
            "home", "exemption",
            (
                Literal("based", (SELF_VAR, "C")),
                Literal("transaction", ("commercial", "C", SELF_VAR)),
            ),
            rate_coef=0.5,
        )
        bought = rule(
            "bought", "exemption",
            (Literal("transaction", ("transfer", SELF_VAR, "R")),),
            rate_coef=0.5,
        )
        parent = rule(
            "parent", "deductible",
            (Literal("isChildOf", ("C", SELF_VAR)),),
            base_coef=0.5,
        )
        applicable = compile_projection(
            [r.query() for r in (earns_at_home, bought, parent)], SELF_VAR
        )
        ledger = settle(state, corpus_scenario.scenario, Ledgers())
        # every company earns in its country of incorporation; c1 bought the
        # IP; p is every child's parent
        assert applicable(state.groups, ledger.rows) == {
            "p": (0, 2), "c1": (0, 1), "c2": (0,), "c3": (0,),
        }
