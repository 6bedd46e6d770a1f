"""Rule-language tests: round-trips, totality, and validator behavior."""

from __future__ import annotations

import string

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

    def test_rendering_is_stable(self, corpus_ruleset):
        once = render_ruleset(corpus_ruleset)
        again = render_ruleset(parse_ruleset(once).document)
        assert once == again


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


class TestRulesetValidation:
    def test_rate_outside_unit_interval(self):
        result = parse_ruleset("rate usa 1.5.")
        assert not result.ok
        assert any("outside [0, 1]" in m for m in errors_of(result))

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

    def test_scenario_statements_rejected_in_rulesets(self):
        result = parse_ruleset("country usa revenue 700.")
        assert not result.ok
        assert any("not allowed here" in m for m in errors_of(result))

    def test_rule_statements_rejected_in_scenarios(self):
        result = parse_scenario(
            'country usa revenue 1.\ncompany p.\nfact based(p, usa).\n'
            'action addChild(P, fresh C) ref "x" { pre: exists(P); eff: exists(C); }'
        )
        assert not result.ok
        assert any("not allowed here" in m for m in errors_of(result))

    def test_duplicate_rule_key_rejected_on_merge(self, corpus_ruleset):
        duplicate = parse_ruleset(
            'reduction "DCITA1969" kind deductible '
            "{ when: based(Self, netherlands); new_base: 0.5 * Base; }"
        )
        assert duplicate.ok
        merged = merge_rulesets([corpus_ruleset, duplicate.document])
        assert not merged.ok
        assert any("duplicate" in str(d) for d in merged.diagnostics)


class TestScenarioValidation:
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
