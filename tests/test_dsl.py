"""Rule-language tests: round-trips, totality, and validator behavior."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophound.dsl import (
    merge_rulesets,
    parse_ruleset,
    parse_scenario,
    parse_state_spec,
    render_ruleset,
    render_scenario,
)

from loophound.explorer import search_world
from loophound.kernel import applicable_actions
from loophound.taxation import SELF_VAR, EvaluationMemo, evaluate_state

from conftest import STATEMENTS, TOY_RULESET, TOY_SCENARIO


def errors_of(result):
    return [str(d) for d in result.errors()]


# ============================================================================
# Round-trips
# ============================================================================


class TestRoundTrip:
    def test_corpus_ruleset_round_trips(self, corpus_ruleset):
        rendered = parse_ruleset(render_ruleset(corpus_ruleset))
        assert rendered.ok, errors_of(rendered)
        assert rendered.document == corpus_ruleset

    def test_corpus_scenario_round_trips(self, corpus_scenario):
        rendered = parse_scenario(render_scenario(corpus_scenario))
        assert rendered.ok, errors_of(rendered)
        assert rendered.document == corpus_scenario

    def test_constant_next_to_a_symbol_round_trips(self):
        text = 'reduction "r" kind deductible { when: exists(Self); new_base: 0.5 * Base + 2; }'
        parsed = parse_ruleset(text)
        assert parsed.ok, errors_of(parsed)
        rendered = render_ruleset(parsed.document)
        assert "new_base: 0.5 * Base + 2;" in rendered
        assert parse_ruleset(rendered).document == parsed.document

    def test_rendering_is_stable(self, corpus_ruleset):
        once = render_ruleset(corpus_ruleset)
        again = render_ruleset(parse_ruleset(once).document)
        assert once == again

    @pytest.mark.parametrize(
        "source, rendered",
        [
            ("Base - 2", "Base - 2"),
            ("-Base + 2", "-Base + 2"),
            ("0.5 * Base - 0.25", "0.5 * Base - 0.25"),
            ("-2 * Base - 3", "-2 * Base - 3"),
            # a term may start with its symbol
            ("Base * 0.5 - 2", "0.5 * Base - 2"),
            ("Rate * 0.25 + 0.01", "0.25 * Rate + 0.01"),
            ("0.00001 * Base + 1234567", "0.00001 * Base + 1234567.0"),
        ],
    )
    def test_linear_expressions_round_trip(self, source, rendered):
        text = f'reduction "r" kind deductible {{ when: exists(Self); new_base: {source}; }}'
        parsed = parse_ruleset(text)
        assert parsed.ok, errors_of(parsed)
        out = render_ruleset(parsed.document)
        assert f"new_base: {rendered};" in out
        again = parse_ruleset(out)
        assert again.ok, errors_of(again)
        assert again.document == parsed.document

    def test_a_zero_expression_renders_unsigned(self):
        text = 'reduction "r" kind deductible { when: exists(Self); new_base: 0; }'
        parsed = parse_ruleset(text)
        assert parsed.ok, errors_of(parsed)
        assert "  new_base: 0;\n" in render_ruleset(parsed.document)

    def test_rates_round_trip_exactly(self):
        parsed = parse_ruleset("rate usa 0.00001.\nrate ireland 0.1234567.")
        assert parsed.ok, errors_of(parsed)
        out = render_ruleset(parsed.document)
        assert "rate usa 0.00001." in out and "rate ireland 0.1234567." in out
        assert parse_ruleset(out).document == parsed.document

    def test_scenario_numbers_round_trip_exactly(self):
        def rendered(revenue):
            doc = parse_scenario(
                TOY_SCENARIO.replace("revenue 700", f"revenue {revenue}")
                .replace("transfer_price 50", "transfer_price 123456789.5")
            ).document
            text = render_scenario(doc)
            assert parse_scenario(text).document == doc
            return text

        one, two = rendered(1234567), rendered(1234568)
        assert "country usa revenue 1234567.0." in one
        assert "set transfer_price 123456789.5." in one
        # the text a scenario's sha256 is taken over tells the two apart
        assert one != two


# ============================================================================
# Numbers and terms
# ============================================================================

# a number literal too large for a float: it would read as infinity
HUGE = "1" + "0" * 400

REDUCTION = 'reduction "r" kind deductible { when: exists(Self); new_base: EXPR; }'


class TestNumbers:
    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_scenario, "country usa revenue HUGE."),
            (parse_scenario, "set transfer_price HUGE."),
            (parse_ruleset, "rate usa HUGE."),
            (parse_ruleset, REDUCTION.replace("EXPR", "HUGE")),
            (parse_ruleset, REDUCTION.replace("EXPR", "HUGE * Base")),
            (parse_ruleset, REDUCTION.replace("EXPR", "Base * HUGE")),
        ],
        ids=["revenue", "parameter", "rate", "constant", "coefficient", "coefficient-after"],
    )
    def test_a_number_too_large_for_a_float_is_an_error_at_its_token(self, parse, text):
        column = text.index("HUGE") + 1
        errors = errors_of(parse(text.replace("HUGE", HUGE)))
        # a scenario without a country and a company reports those too
        assert f"1:{column}: error: number too large to be finite" in errors
        assert sum("number" in message for message in errors) == 1

    def test_the_largest_numbers_round_trip(self):
        # 10**308 is finite, and renders written out in full
        big = "1" + "0" * 308
        doc = parse_scenario(TOY_SCENARIO.replace("revenue 700", f"revenue {big}")).document
        assert doc.scenario.revenue_table["usa"] == 1e308
        text = render_scenario(doc)
        assert f"country usa revenue {big}." in text
        assert parse_scenario(text).document == doc

    @pytest.mark.parametrize(
        "pre,eff,expected",
        [
            ("exists(P), based(P, 1)", "exists(C), based(C, usa)", "a term"),
            ("exists(P), P == 1", "exists(C), based(C, usa)", "a term after =="),
            ("exists(P), 1 != P", "exists(C), based(C, usa)", "a literal or comparison"),
            ("exists(P)", "exists(C), based(C, 1)", "a term"),
        ],
    )
    def test_a_term_is_a_name(self, pre, eff, expected):
        text = f'action addChild(P, fresh C) ref "x" {{ pre: {pre}; eff: {eff}; }}'
        column = text.index("1") + 1
        assert errors_of(parse_ruleset(text)) == [
            f"1:{column}: error: expected {expected}, found '1'"
        ]

    def test_a_fact_term_is_a_name(self):
        result = parse_scenario("country usa revenue 1.\ncompany p.\nfact based(p, 1).\n")
        assert errors_of(result) == ["3:15: error: expected a term, found '1'"]

    def test_a_name_before_another_operator_is_an_error_at_the_operator(self):
        text = 'action addChild(P, fresh C) ref "x" { pre: exists(P), P + C; eff: exists(C); }'
        column = text.index("+") + 1
        assert errors_of(parse_ruleset(text)) == [
            f"1:{column}: error: expected '(' or a comparison operator after 'P'"
        ]


# ============================================================================
# Totality: the parser reports, it never raises
# ============================================================================


NASTY_INPUTS = [
    "",
    ".",
    "}",
    "action",
    'action addChild( ref "x" {',
    "rate usa",
    "rate usa abc.",
    "fact based(p, usa)",  # missing period
    "company Upper.",
    'reduction "r" kind bogus { when: exists(X); }',
    "\x00\x01\x02",
    "country usa revenue -5.",
    "pool .",
    "set royalty_rate two.",
    '" unterminated',
    "action addChild(P, fresh C) ref \"x\" { pre: ; eff: ; }",
]


class TestTotality:
    def test_nasty_inputs_produce_diagnostics_not_exceptions(self):
        for text in NASTY_INPUTS:
            for parse in (parse_ruleset, parse_scenario, parse_state_spec):
                result = parse(text)
                if not result.ok:
                    assert result.errors(), f"silent failure on {text!r}"

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=200))
    def test_random_text_never_raises(self, text):
        for parse in (parse_ruleset, parse_scenario, parse_state_spec):
            result = parse(text)
            assert result.ok or result.errors()

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=120))
    def test_random_bytes_never_raise(self, blob):
        text = blob.decode("utf-8", errors="replace")
        for parse in (parse_ruleset, parse_scenario):
            result = parse(text)
            assert result.ok or result.errors()


# ============================================================================
# Validators
# ============================================================================


def chain_ruleset(literals):
    """The toy ruleset with an action and a reduction whose conditions are
    chains of ``literals`` literals.  Each literal of a chain binds one
    variable, so its join nests one loop per literal, in either engine;
    CPython compiles 20 nested blocks in one function, not 21."""

    def chain(root):
        links = [f"isChildOf(X{i}, X{i - 1})" for i in range(2, literals)]
        return ", ".join([f"exists({root})", f"isChildOf(X1, {root})", *links])

    return TOY_RULESET + (
        'action addChild(Parent, fresh Child, Country) ref "chain" {\n'
        f"  pre: {chain('Parent')};\n"
        "  eff: exists(Child), based(Child, Country), isChildOf(Child, Parent);\n"
        "}\n"
        'reduction "chain" kind deductible {\n'
        f"  when: {chain(SELF_VAR)};\n"
        "  new_base: 0.5 * Base;\n"
        "}\n"
    )


class TestRulesetValidation:
    def test_rate_outside_unit_interval(self):
        result = parse_ruleset("rate usa 1.5.")
        assert not result.ok
        assert any("outside [0, 1]" in m for m in errors_of(result))

    @pytest.mark.parametrize("rate", ["0", "1"])
    def test_rate_bounds_are_inside_the_unit_interval(self, rate):
        result = parse_ruleset(f"rate usa {rate}.")
        assert result.ok, errors_of(result)
        assert result.document.rates() == {"usa": float(rate)}

    @pytest.mark.parametrize("residence", ["based(C, usa)", "managed(C, usa)"])
    def test_an_added_company_needs_a_residence(self, residence):
        rule = 'action addChild(P, fresh C) ref "x" {{ pre: exists(P); eff: exists(C){}; }}'
        assert errors_of(parse_ruleset(rule.format(""))) == [
            "1:1: error: action: addChild/x: exists(C) is added without "
            "a based or managed fact of 'C'"
        ]
        result = parse_ruleset(rule.format(", " + residence))
        assert result.ok, errors_of(result)

    def test_unknown_action_name_rejected(self):
        text = 'action fly(P) ref "x" { pre: exists(P); eff: exists(P); }'
        result = parse_ruleset(text)
        assert not result.ok
        assert any("action name" in m for m in errors_of(result))

    def test_unknown_predicate_rejected(self):
        text = 'action addChild(P, fresh C) ref "x" { pre: owns(P); eff: exists(C); }'
        result = parse_ruleset(text)
        assert not result.ok
        assert any("unknown predicate" in m for m in errors_of(result))

    def test_wildcard_outside_negation_rejected(self):
        text = (
            'action rentIP(L, R, I) ref "x" '
            "{ pre: rentsIP(_, R, I); eff: rentsIP(L, R, I); }"
        )
        result = parse_ruleset(text)
        assert not result.ok
        assert any("negated" in m for m in errors_of(result))

    def test_wildcard_inside_negation_accepted(self):
        text = (
            'action rentIP(L, R, I) ref "x" '
            "{ pre: ownsIP(L, I), exists(R), L != R, not rentsIP(_, R, I); "
            "eff: rentsIP(L, R, I); }"
        )
        result = parse_ruleset(text)
        assert result.ok, errors_of(result)

    def test_check_on_unbound_variable_rejected(self):
        text = (
            'reduction "r" kind deductible '
            "{ when: X != usa, based(Self, C); new_base: 0.5 * Base; }\n"
            'action addChild(P, fresh C) ref "x" '
            "{ pre: exists(P), not based(Q, usa); eff: exists(C); }"
        )
        result = parse_ruleset(text)
        assert not result.ok
        messages = errors_of(result)
        # each error points at the statement that starts the offending rule
        assert any(
            m.startswith("1:1: error: reduction:") and "'X' in comparison" in m
            for m in messages
        )
        assert any(
            m.startswith("2:1: error: action:") and "'Q' in negated literal" in m
            for m in messages
        )

    def test_untyped_free_parameter_rejected(self):
        # Tag fills no typed position, so grounding has no domain for it
        text = (
            "rate usa 0.35.\n"
            'action addChild(Parent, fresh Child, Tag) ref "x" {\n'
            "  pre: exists(Parent), Tag != Parent;\n"
            "  eff: exists(Child);\n"
            "}\n"
        )
        result = parse_ruleset(text)
        assert not result.ok
        assert any(
            m.startswith("2:1: error: action:")
            and "cannot infer a domain for parameter 'Tag'" in m
            for m in errors_of(result)
        ), errors_of(result)

    def test_conflicting_variable_types_rejected(self):
        text = (
            'action addChild(P, fresh C) ref "x" '
            "{ pre: exists(P), based(Q, P); eff: exists(C); }"
        )
        result = parse_ruleset(text)
        assert not result.ok
        assert any(
            m.startswith("1:1: error: action:")
            and "'P' used with conflicting types" in m
            for m in errors_of(result)
        ), errors_of(result)

    @pytest.mark.parametrize(
        "params,pre,eff",
        [
            # sells one IP and buys another
            ("From, To, Ip, Other", "ownsIP(From, Ip), ownsIP(To, Other)",
             "not ownsIP(From, Ip), ownsIP(To, Other)"),
            # sells to the seller
            ("From, Ip", "ownsIP(From, Ip)", "not ownsIP(From, Ip), ownsIP(From, Ip)"),
            # a constant seller
            ("To, Ip", "ownsIP(p, Ip), exists(To)", "not ownsIP(p, Ip), ownsIP(To, Ip)"),
        ],
        ids=["two-ips", "to-itself", "constant-seller"],
    )
    def test_transfer_sells_one_ip_between_two_parameters(self, params, pre, eff):
        text = f'action transferIP({params}) ref "x" {{ pre: {pre}; eff: {eff}; }}'
        assert errors_of(parse_ruleset(text)) == [
            "1:1: error: action: transferIP/x: transferIP must delete one "
            "ownsIP(Seller, Ip) and add one ownsIP(Buyer, Ip), Seller and Buyer "
            "distinct parameters"
        ]

    def test_a_twenty_loop_join_compiles_and_grounds(self):
        parsed = parse_ruleset(chain_ruleset(20))
        assert parsed.ok, errors_of(parsed)
        # p is its own parent: the chain holds with every variable bound to p
        scenario = parse_scenario(TOY_SCENARIO + "fact isChildOf(p, p).\n").document
        rules, root = search_world(parsed.document.action_rules, scenario)
        chained = [a for a in applicable_actions(root, rules) if a.legal_ref == "chain"]
        assert [a.as_dict() for a in chained] == [
            {"Child": "c1", "Country": country, "Parent": "p"}
            for country in ("usa", "ireland")
        ]
        memo = EvaluationMemo(
            scenario.scenario, parsed.document.reduction_rules, parsed.document.rates()
        )
        _, (assessment,), _ = evaluate_state(root, memo)
        assert assessment.applied_reduction == "chain"

    def test_a_join_of_more_than_twenty_loops_is_rejected_at_its_rule(self):
        line = TOY_RULESET.count("\n") + 1
        too_large = "condition too large to compile: 21 nested loops, at most 20"
        assert errors_of(parse_ruleset(chain_ruleset(21))) == [
            f"{line}:1: error: action: {too_large}",
            f"{line + 4}:1: error: reduction: {too_large}",
        ]

    def test_deductible_must_not_touch_rate(self):
        text = (
            'reduction "r" kind deductible '
            "{ when: based(Self, usa); new_rate: 0.5 * Rate; }"
        )
        result = parse_ruleset(text)
        assert not result.ok
        assert any("new_rate" in m for m in errors_of(result))

    def test_exemption_must_not_touch_base(self):
        text = (
            'reduction "r" kind exemption '
            "{ when: based(Self, usa); new_base: 0.5 * Base; }"
        )
        result = parse_ruleset(text)
        assert not result.ok
        assert any("new_base" in m for m in errors_of(result))

    def test_rate_country_must_be_a_constant(self):
        result = parse_ruleset("rate Usa 0.3.\nrate _ 0.2.\n")
        assert not result.ok
        assert errors_of(result) == [
            "1:6: error: country id 'Usa' is not a constant",
            "2:6: error: country id '_' is not a constant",
        ]

    def test_duplicate_rule_key_rejected_on_merge(self, corpus_ruleset):
        for text, key in [
            (
                'reduction "DCITA1969" kind deductible '
                "{ when: based(Self, netherlands); new_base: 0.5 * Base; }",
                "('deductible', 'DCITA1969')",
            ),
            (
                'action addChild(Parent, fresh Child) ref "EU-incorp" '
                "{ pre: exists(Parent); eff: exists(Child), based(Child, usa); }",
                "('addChild', 'EU-incorp')",
            ),
        ]:
            duplicate = parse_ruleset(text)
            assert duplicate.ok, errors_of(duplicate)
            merged = merge_rulesets([corpus_ruleset, duplicate.document])
            assert not merged.ok
            assert errors_of(merged) == [f"1:1: error: duplicate rule {key} across files"]


class TestScenarioValidation:
    def test_repeated_parameter_rejected(self):
        result = parse_scenario(
            "country usa revenue 1.\ncompany p.\nfact based(p, usa).\n"
            "set royalty_rate 0.9.\nset royalty_rate 0.5.\n"
        )
        assert not result.ok
        assert errors_of(result) == ["5:5: error: parameter 'royalty_rate' set twice"]

    def test_haven_must_not_carry_revenue(self):
        result = parse_scenario(
            "country bermuda haven.\ncountry bermuda revenue 5.\n"
            "company p.\nfact based(p, bermuda).\n"
        )
        assert not result.ok

    def test_variable_argument_in_fact_rejected(self):
        result = parse_scenario(
            "country usa revenue 1.\ncompany p.\nfact based(p, Country).\n"
        )
        assert not result.ok

    def test_fact_about_undeclared_company_rejected(self):
        result = parse_scenario("country usa revenue 1.\nfact based(q, usa).\n")
        assert not result.ok

    def test_entity_name_that_is_not_a_constant_is_reported_where_it_stands(self):
        result = parse_scenario(
            "country usa revenue 1.\ncountry Eire haven.\nip Patent.\n"
            "company p.\nfact based(p, usa).\npool c1 C2 _.\n"
        )
        assert not result.ok
        assert [(d.line, d.col, d.message.split(" is ")[0]) for d in result.errors()] == [
            (2, 9, "country id 'Eire'"),
            (3, 4, "ip id 'Patent'"),
            (6, 9, "company id 'C2'"),
            (6, 12, "company id '_'"),
        ]

    def test_pool_id_of_a_declared_company_is_reported_at_the_id(self):
        result = parse_scenario(
            "country usa revenue 1.\ncompany p.\nfact based(p, usa).\npool c1 p.\n"
        )
        assert errors_of(result) == [
            "4:9: error: pool id 'p' is already a declared company"
        ]

    def test_invariant_breach_is_reported_at_the_fact_that_breaks_it(self):
        result = parse_scenario(
            "country usa revenue 1.\ncompany p.\ncompany q.\nip i.\n"
            "fact based(p, usa).\nfact ownsIP(p, i).\nfact based(q, usa).\n"
            "fact ownsIP(q, i).\nfact managed(q, usa).\n"
        )
        assert errors_of(result) == [
            "8:6: error: initial state: ip 'i' has more than one owner"
        ]

    def test_parameter_out_of_range_is_reported_at_its_statement(self):
        result = parse_scenario(
            "country usa revenue 1.\ncompany p.\nfact based(p, usa).\n"
            "set royalty_rate 2.\n"
        )
        assert errors_of(result) == ["4:5: error: royalty_rate outside [0, 1]: 2.0"]

    def test_corpus_scenario_shape(self, corpus_scenario):
        scenario = corpus_scenario.scenario
        assert scenario.countries == (
            "usa",
            "germany",
            "netherlands",
            "ireland",
            "bermuda",
        )
        assert scenario.revenue_table == {
            "usa": 700.0,
            "germany": 300.0,
            "netherlands": 100.0,
            "ireland": 30.0,
        }
        assert scenario.tax_havens == frozenset({"bermuda"})
        assert scenario.company_pool == ("c1", "c2", "c3")
        assert scenario.royalty_rate == 0.9
        assert scenario.transfer_price == 50.0
        assert scenario.action_cost == 1.0
        assert corpus_scenario.state.companies == ("p",)
        assert corpus_scenario.state.ips == ("ip1",)


# the keywords each document kind admits
KINDS = {
    "ruleset": (parse_ruleset, {"rate", "action", "reduction"}),
    "state": (parse_state_spec, {"company", "ip", "fact"}),
    "scenario": (parse_scenario, {"company", "ip", "fact", "country", "pool", "set"}),
}


class TestAdmittedStatements:
    @pytest.mark.parametrize("keyword", sorted(STATEMENTS))
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_statement_by_kind(self, kind, keyword):
        parse, admitted = KINDS[kind]
        result = parse("# one statement\n  " + STATEMENTS[keyword] + "\n")
        refused = [m for m in errors_of(result) if "not allowed here" in m]
        if keyword in admitted:
            assert refused == []
        else:
            assert not result.ok
            assert refused == [f"2:3: error: {keyword} statement not allowed here"]

    def test_refused_statement_is_skipped(self):
        # the refused rule is not parsed, so its malformed body adds nothing
        result = parse_state_spec(
            'company p.\naction addChild(P) ref "x" { pre: ; eff: ; }\nip Patent.\n'
        )
        assert errors_of(result) == [
            "2:1: error: action statement not allowed here",
            "3:4: error: ip id 'Patent' is not a constant",
        ]

    def test_unclosed_refused_block_swallows_no_later_statement(
        self, corpus_scenario_text
    ):
        result = parse_scenario(
            'action addChild(Parent, fresh Child) ref "BRM-incorp" {\n'
            + corpus_scenario_text
        )
        assert errors_of(result) == ["1:1: error: action statement not allowed here"]

    def test_recovery_stops_at_a_statement_that_starts_a_line(self):
        # the broken reduction ends where the next line's rate begins, so
        # that rate is parsed and checked
        result = parse_ruleset(
            'reduction "r" kind deductible {\n  when: based(Self, usa)\n'
            "rate ireland 2.\n"
        )
        assert errors_of(result) == [
            "3:1: error: expected ;, found 'rate'",
            "3:6: error: rate for 'ireland' outside [0, 1]: 2",
        ]

    def test_recovery_stops_at_the_end_of_the_statement(self):
        # the statement keyword after the error, on the same line, is skipped
        assert errors_of(parse_ruleset("rate usa x company.")) == [
            "1:10: error: expected rate value, found 'x'"
        ]

    def test_recovery_skips_nested_blocks(self):
        # a rule broken before its block ends at the brace that closes the
        # block, so the rate after it is parsed and checked
        result = parse_ruleset("action addChild(P) ref x { pre: { }; } rate usa 2.")
        assert errors_of(result) == [
            "1:24: error: expected legal reference string, found 'x'",
            "1:45: error: rate for 'usa' outside [0, 1]: 2",
        ]

    def test_diagnostics_come_in_source_order(self):
        # a statement's own syntax error is found while parsing, the checks
        # that span the document after it; both are reported by position
        result = parse_scenario(
            "country usa revenue 1.\ncountry usa revenue 2.\ncompany p.\n"
            "fact based(p, usa).\nfact based(q, usa).\nset royalty_rate two.\n"
            "rate usa 0.3.\n"
        )
        assert not result.ok
        assert errors_of(result) == [
            "2:9: error: country 'usa' declared twice",
            "5:6: error: fact references undeclared company 'q'",
            "6:18: error: expected parameter value, found 'two'",
            "7:1: error: rate statement not allowed here",
        ]


class TestCorpusContent:
    def test_rate_table(self, corpus_ruleset):
        assert corpus_ruleset.rates() == {
            "usa": 0.35,
            "germany": 0.30,
            "netherlands": 0.25,
            "ireland": 0.125,
            "bermuda": 0.0,
        }

    def test_all_rule_keys_present(self, corpus_ruleset):
        action_keys = {r.key() for r in corpus_ruleset.action_rules}
        assert action_keys == {
            ("addChild", "EU-incorp"),
            ("addChild", "USA-incorp"),
            ("addChild", "BRM-incorp"),
            ("addChild", "I-incorp"),
            ("rentIP", "license"),
            ("rentIP", "sub-license"),
            ("transferIP", "transfer"),
        }
        reduction_keys = {r.key() for r in corpus_ruleset.reduction_rules}
        assert reduction_keys == {
            ("deductible", "2003/49/EC"),
            ("exemption", "2003/49/EC"),
            ("deductible", "DCITA1969"),
            ("exemption", "A8cNLctl1969"),
            ("deductible", "IRC-Sec162"),
            ("exemption", "USA-wte"),
            ("exemption", "check-the-box"),
            ("exemption", "s23-IincpA"),
        }
