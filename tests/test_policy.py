"""Welfare-restriction tests.

Removing a set of trajectories from the pool and comparing welfare before
and after is the policy primitive; these tests pin its arithmetic on hand
built pools and verify the restriction theorem on a separable instance.
"""

from __future__ import annotations

import math

import pytest

from loophound.induction import (
    Clause,
    ClauseLiteral,
    InductionConfig,
    build_background,
    evaluate,
    induce,
    label,
)
from loophound.policy import (
    WELFARE_KINDS,
    PolicyError,
    WelfareConfig,
    delta_restriction,
    delta_set,
    welfare,
)
from loophound.runfiles import write_policy_report

from conftest import mk_tset, read_policy_report, role_trajectory


MEAN_TAX = WelfareConfig("mean_tax_collected")
TOTAL_TAX = WelfareConfig("total_tax_collected")
UTILITARIAN = WelfareConfig("mean_utilitarian")


# ----------------------------------------------------------------- welfare


class TestWelfare:
    def pool(self):
        return mk_tset(
            [role_trajectory(0, 100.0, 10.0), role_trajectory(1, 50.0, 2.0)]
        )

    def test_mean_tax(self):
        assert welfare(self.pool(), None, MEAN_TAX) == 6.0
        assert welfare(self.pool(), [0], MEAN_TAX) == 10.0
        assert welfare(self.pool(), [1], MEAN_TAX) == 2.0

    def test_total_tax(self):
        assert welfare(self.pool(), None, TOTAL_TAX) == 12.0
        assert welfare(self.pool(), [], TOTAL_TAX) == 0.0

    def test_mean_utilitarian_adds_profit_and_tax(self):
        tset = mk_tset(
            [
                role_trajectory(0, 0.0, 10.0, p=90.0),
                role_trajectory(1, 0.0, 30.0, p=70.0),
            ]
        )
        assert welfare(tset, None, UTILITARIAN) == 100.0

    def test_none_subset_equals_full_id_list(self):
        tset = self.pool()
        assert welfare(tset, None, MEAN_TAX) == welfare(tset, [0, 1], MEAN_TAX)

    def test_empty_mean_is_undefined(self):
        assert welfare(self.pool(), [], MEAN_TAX) is None
        assert welfare(self.pool(), [], UTILITARIAN) is None

    def test_incomplete_trajectories_outside_omega(self):
        tset = mk_tset(
            [
                role_trajectory(0, 100.0, 10.0),
                role_trajectory(1, 50.0, 99.0, complete=False),
            ]
        )
        assert welfare(tset, None, MEAN_TAX) == 10.0
        with pytest.raises(PolicyError, match="outside the complete"):
            welfare(tset, [1], MEAN_TAX)

    def test_unknown_id_rejected(self):
        with pytest.raises(PolicyError, match="outside the complete"):
            welfare(self.pool(), [17], MEAN_TAX)

    def test_subset_order_and_duplicates_do_not_matter(self):
        tset = mk_tset(
            [role_trajectory(i, 10.0 * i, float(i)) for i in range(5)]
        )
        a = welfare(tset, [3, 1, 4], MEAN_TAX)
        b = welfare(tset, [4, 3, 1, 1, 3], MEAN_TAX)
        assert a == b

    def test_trajectory_listing_order_does_not_matter(self):
        rows = [role_trajectory(i, 10.0 * i, float(i) + 0.1) for i in range(6)]
        forward = mk_tset(rows)
        backward = mk_tset(list(reversed(rows)))
        for config in (MEAN_TAX, TOTAL_TAX, UTILITARIAN):
            assert welfare(forward, None, config) == welfare(
                backward, None, config
            )

    def test_matches_independent_recomputation(self, desk_run):
        complete = sorted(desk_run.complete_trajectories(), key=lambda t: t.id)
        want = math.fsum(t.total_tax() for t in complete) / len(complete)
        assert welfare(desk_run, None, MEAN_TAX) == want


class TestWelfareConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError, match="unknown welfare kind"):
            WelfareConfig("median_tax")

    def test_description_autofilled(self):
        assert "mean" in WelfareConfig("mean_tax_collected").description
        assert "sum" in WelfareConfig("total_tax_collected").description

    def test_all_kinds_constructible(self):
        for kind in WELFARE_KINDS:
            assert WelfareConfig(kind).welfare_kind == kind


# --------------------------------------------------------------- delta_set


class TestDeltaSet:
    def pool(self):
        return mk_tset(
            [role_trajectory(0, 100.0, 10.0), role_trajectory(1, 50.0, 2.0)]
        )

    def test_empty_restriction_is_exactly_zero(self):
        tset = self.pool()
        for config in (MEAN_TAX, TOTAL_TAX, UTILITARIAN):
            assert delta_set(tset, [], config) == 0.0

    def test_removing_the_low_tax_plan_raises_mean(self):
        # W(omega) = 6; removing the 2-tax trajectory leaves mean 10
        assert delta_set(self.pool(), [1], MEAN_TAX) == 4.0

    def test_removing_everything_is_undefined_for_means(self):
        assert delta_set(self.pool(), [0, 1], MEAN_TAX) is None

    def test_total_kind_is_always_defined(self):
        assert delta_set(self.pool(), [0, 1], TOTAL_TAX) == -12.0

    def test_unknown_id_rejected(self):
        with pytest.raises(PolicyError):
            delta_set(self.pool(), [99], MEAN_TAX)


# ------------------------------------------------------------- restriction


def separable_pool():
    """Positives (high utility, low tax) carry a bermuda marker; negatives
    (low utility, high tax) do not.  A perfect classifier exists."""
    bermuda = ("managed", ("i0", "bermuda"))
    return mk_tset(
        [
            role_trajectory(0, 100.0, 1.0, [bermuda]),
            role_trajectory(1, 100.0, 1.0, [bermuda]),
            role_trajectory(2, 10.0, 50.0),
            role_trajectory(3, 10.0, 50.0),
        ]
    )


def induced(tset, u_plus=50.0):
    config = InductionConfig(u_plus=u_plus)
    examples = label(tset, u_plus)
    background = build_background(tset, config)
    hypothesis = induce(examples, background, config)
    return hypothesis, examples, background


class TestDeltaRestriction:
    def test_separable_restriction_theorem(self):
        """Perfect separation plus positive delta(E+) forces a positive
        restriction score and the inefficiency verdict."""
        tset = separable_pool()
        hypothesis, examples, background = induced(tset)
        overall = evaluate(hypothesis, examples, background)
        assert overall.sensitivity == 1.0
        assert overall.specificity == 1.0
        report = delta_restriction(
            tset, hypothesis, examples, background, MEAN_TAX
        )
        # W(omega) = 25.5; dropping both 1-tax plans leaves mean 50
        assert report.welfare_omega == 25.5
        assert report.delta_e == 24.5
        assert report.delta_h_pos == 24.5
        assert report.delta_h_neg == 0.0
        assert report.delta_h == 24.5
        assert report.delta_h > 0
        assert report.verdict == "operationally_inefficient"
        assert (report.covered_positives, report.covered_negatives) == (2, 0)

    def test_delta_identity_is_exact(self):
        tset = separable_pool()
        hypothesis, examples, background = induced(tset)
        report = delta_restriction(
            tset, hypothesis, examples, background, MEAN_TAX
        )
        assert report.delta_h == report.delta_h_pos - report.delta_h_neg

    def test_hypothesis_covering_nothing_scores_zero(self):
        tset = separable_pool()
        _, examples, background = induced(tset)
        from loophound.induction import Hypothesis, Metrics

        inert = Hypothesis(
            clauses=(
                Clause(body=(ClauseLiteral("managed", ("A", "atlantis")),)),
            ),
            clause_metrics=(Metrics.from_counts(0, 0, 2, 2),),
        )
        report = delta_restriction(tset, inert, examples, background, MEAN_TAX)
        assert report.delta_h_pos == 0.0
        assert report.delta_h_neg == 0.0
        assert report.delta_h == 0.0
        # the verdict reflects E+, not the hypothesis
        assert report.verdict == "operationally_inefficient"

    def test_hypothesis_covering_one_negative_scores_its_negated_delta(self):
        bermuda = ("managed", ("i0", "bermuda"))
        ghost = ("managed", ("n0", "usa"))  # marks exactly one negative
        tset = mk_tset(
            [
                role_trajectory(0, 100.0, 1.0, [bermuda]),
                role_trajectory(1, 10.0, 50.0, [ghost]),
                role_trajectory(2, 10.0, 44.0),
            ]
        )
        _, examples, background = induced(tset)
        from loophound.induction import Hypothesis, Metrics

        neg_only = Hypothesis(
            clauses=(Clause(body=(ClauseLiteral("managed", ("B", "usa")),)),),
            clause_metrics=(Metrics.from_counts(0, 1, 1, 1),),
        )
        report = delta_restriction(
            tset, neg_only, examples, background, MEAN_TAX
        )
        want = delta_set(tset, [1], MEAN_TAX)
        assert report.delta_h_neg == want
        assert report.delta_h == -want
        assert (report.covered_positives, report.covered_negatives) == (0, 1)

    def test_undefined_when_positives_cover_omega(self):
        tset = mk_tset(
            [role_trajectory(0, 100.0, 1.0), role_trajectory(1, 90.0, 2.0)]
        )
        u_plus = 50.0
        examples = label(tset, u_plus)
        assert examples.negatives == ()
        config = InductionConfig(u_plus=u_plus)
        background = build_background(tset, config)
        hypothesis = induce(examples, background, config)
        report = delta_restriction(
            tset, hypothesis, examples, background, MEAN_TAX
        )
        assert report.delta_e is None
        assert report.verdict == "undefined"

    def test_report_counts(self):
        tset = separable_pool()
        hypothesis, examples, background = induced(tset)
        report = delta_restriction(
            tset, hypothesis, examples, background, MEAN_TAX
        )
        assert report.omega_size == 4
        assert (report.positives, report.negatives) == (2, 2)
        assert report.u_plus == 50.0
        assert report.welfare_kind == "mean_tax_collected"
        assert report.welfare_description


# ------------------------------------------------------------------ report


class TestPolicyReportFile:
    def test_round_trip(self, tmp_path):
        tset = separable_pool()
        hypothesis, examples, background = induced(tset)
        report = delta_restriction(
            tset, hypothesis, examples, background, MEAN_TAX
        )
        path = tmp_path / "policy_report.json"
        write_policy_report(report, path)
        payload = read_policy_report(path)
        assert payload["kind"] == "policy-report"
        assert payload["welfare"]["kind"] == "mean_tax_collected"
        assert payload["omega"] == {
            "definition": "complete trajectories of the sampled set",
            "size": 4,
        }
        assert payload["delta_E"] == 24.5
        assert payload["Delta_H"] == 24.5
        assert payload["delta_H_pos"] == 24.5
        assert payload["delta_H_neg"] == 0.0
        assert payload["undefined_quantities"] == []
        assert payload["verdict"] == "operationally_inefficient"
        assert payload["labels"] == {
            "u_plus": 50.0,
            "positives": 2,
            "negatives": 2,
        }

    def test_undefined_quantities_listed(self, tmp_path):
        tset = mk_tset(
            [role_trajectory(0, 100.0, 1.0), role_trajectory(1, 90.0, 2.0)]
        )
        examples = label(tset, 50.0)
        config = InductionConfig(u_plus=50.0)
        background = build_background(tset, config)
        hypothesis = induce(examples, background, config)
        report = delta_restriction(
            tset, hypothesis, examples, background, MEAN_TAX
        )
        path = tmp_path / "policy_report.json"
        write_policy_report(report, path)
        payload = read_policy_report(path)
        assert payload["delta_E"] is None
        assert "delta_E" in payload["undefined_quantities"]
        assert payload["verdict"] == "undefined"

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "other"}')
        with pytest.raises(PolicyError):
            read_policy_report(path)
