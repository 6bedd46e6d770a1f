"""Rule-induction tests.

``oracle_best_single_clause`` enumerates the entire bounded clause space
with a brute-force matcher (exhaustive assignment of fresh variables) and
returns the best achievable single-clause F1; the beam search must reach
the same score on small instances.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophound.analytics import detect_segments, utility_profile
from loophound.explorer import explore
from loophound.induction import (
    DEFAULT_ROLE_BINDING,
    DEFAULT_VOCABULARY,
    HEAD_VARIABLES,
    Clause,
    ClauseLiteral,
    BackgroundDB,
    ExampleBackground,
    Hypothesis,
    InductionConfig,
    InductionError,
    Metrics,
    _candidate_literals,
    _constant_pools,
    build_background,
    canonical_clause,
    clause_covers,
    covered_ids,
    evaluate,
    induce,
    label,
    scheme_graph,
)
from loophound.kernel import State, is_variable, make_fact
from loophound.runfiles import (
    RunFileError,
    read_hypothesis_json,
    write_dot,
    write_edges_csv,
    write_hypothesis_json,
    write_hypothesis_text,
)

from conftest import ROLE_FACTS, mk_tset, role_trajectory


# ------------------------------------------------------------------ helpers


def small_instance():
    """Six complete trajectories; bermuda management separates imperfectly.

    Positives (utility 100): ids 0-2.  Negatives (utility 10): ids 3-5,
    where id 3 shares the full positive structure, making a perfect split
    impossible.  Best single clause: managed(A, bermuda), F1 = 6/7.
    """
    bermuda = ("managed", ("i0", "bermuda"))
    edge = ("rentsIP", ("i0", "n0", "ip1"))
    reverse = ("rentsIP", ("n0", "i0", "ip1"))
    return mk_tset(
        [
            role_trajectory(0, 100.0, extra_facts=[bermuda, edge]),
            role_trajectory(1, 100.0, extra_facts=[bermuda, edge]),
            role_trajectory(2, 100.0, extra_facts=[bermuda]),
            role_trajectory(3, 10.0, extra_facts=[bermuda, edge]),
            role_trajectory(4, 10.0, extra_facts=[reverse]),
            role_trajectory(5, 10.0, extra_facts=[]),
        ]
    )


def separable_instance():
    bermuda = ("managed", ("i0", "bermuda"))
    edge = ("rentsIP", ("i0", "n0", "ip1"))
    return mk_tset(
        [
            role_trajectory(0, 100.0, extra_facts=[bermuda, edge]),
            role_trajectory(1, 100.0, extra_facts=[bermuda]),
            role_trajectory(2, 10.0, extra_facts=[edge]),
            role_trajectory(3, 10.0, extra_facts=[]),
        ]
    )


# ----------------------------------------------------- brute-force matcher


def oracle_covers(clause: Clause, example) -> bool:
    """Exhaustive check: try every assignment of non-role variables."""
    binding = dict(example.roles)
    constants = sorted({term for atom in example.facts for term in atom[1:]})
    free = sorted(
        {
            t
            for lit in clause.body
            for t in lit.args
            if is_variable(t) and t not in binding
        }
    )
    facts = set(example.facts)
    for values in itertools.product(constants, repeat=len(free)):
        assignment = dict(binding)
        assignment.update(zip(free, values))
        if all(
            (lit.predicate, *[assignment.get(t, t) for t in lit.args]) in facts
            for lit in clause.body
        ):
            return True
    return False


def oracle_literal_universe(countries, ips, vocabulary, max_fresh=2):
    fresh = [f"Ip{i}" for i in range(max_fresh)]
    ip_terms = fresh + list(ips)
    out = []
    if "managed" in vocabulary:
        for company in HEAD_VARIABLES:
            for country in countries:
                out.append(ClauseLiteral("managed", (company, country)))
    if "ownsIP" in vocabulary:
        for company in HEAD_VARIABLES:
            for ip in ip_terms:
                out.append(ClauseLiteral("ownsIP", (company, ip)))
    if "rentsIP" in vocabulary:
        for a in HEAD_VARIABLES:
            for b in HEAD_VARIABLES:
                if a != b:
                    for ip in ip_terms:
                        out.append(ClauseLiteral("rentsIP", (a, b, ip)))
    return out


def oracle_best_single_clause(db, positives, negatives, vocabulary, max_literals):
    countries = sorted(
        {a[2] for ex in db.examples for a in ex.facts if a[0] == "managed"}
    )
    ips = sorted(
        {a[-1] for ex in db.examples for a in ex.facts if a[0] in ("ownsIP", "rentsIP")}
    )
    universe = oracle_literal_universe(countries, ips, vocabulary)
    by_id = {ex.trajectory_id: ex for ex in db.examples}
    best = 0.0
    for size in range(1, max_literals + 1):
        for body in itertools.combinations(universe, size):
            clause = Clause(body=tuple(body))
            tp = sum(1 for i in positives if oracle_covers(clause, by_id[i]))
            if not tp:
                continue
            fp = sum(1 for i in negatives if oracle_covers(clause, by_id[i]))
            fn = len(positives) - tp
            f1 = 2 * tp / (2 * tp + fp + fn)
            best = max(best, f1)
    return best


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_worked_example(self):
        m = Metrics.from_counts(tp=3, fp=1, tn=5, fn=1)
        assert m.accuracy == 0.8
        assert m.precision == 0.75
        assert m.sensitivity == 0.75
        assert m.specificity == 5.0 / 6.0
        assert m.f1 == 0.75

    def test_undefined_ratios_are_none(self):
        empty = Metrics.from_counts(0, 0, 0, 0)
        assert empty.accuracy is None
        assert empty.precision is None
        assert empty.sensitivity is None
        assert empty.specificity is None
        assert empty.f1 is None
        no_pred_pos = Metrics.from_counts(0, 0, 4, 2)
        assert no_pred_pos.precision is None
        assert no_pred_pos.f1 is None
        assert no_pred_pos.sensitivity == 0.0
        assert no_pred_pos.accuracy == 4.0 / 6.0

    def test_zero_precision_and_sensitivity_leave_f1_undefined(self):
        m = Metrics.from_counts(tp=0, fp=3, tn=1, fn=2)
        assert m.precision == 0.0
        assert m.sensitivity == 0.0
        assert m.f1 is None

    def test_randomized_identities(self):
        rng = np.random.default_rng(2026)
        configs = [tuple(int(x) for x in rng.integers(0, 25, size=4)) for _ in range(16)]
        configs += [(0, 0, 3, 0), (5, 0, 0, 0), (0, 4, 0, 2), (0, 0, 0, 0)]
        assert len(configs) == 20
        for tp, fp, tn, fn in configs:
            m = Metrics.from_counts(tp, fp, tn, fn)
            total = tp + fp + tn + fn
            if total:
                assert m.accuracy == (tp + tn) / total
            else:
                assert m.accuracy is None
            if tp + fp:
                assert m.precision == tp / (tp + fp)
            else:
                assert m.precision is None
            if tp + fn:
                assert m.sensitivity == tp / (tp + fn)
            else:
                assert m.sensitivity is None
            if tn + fp:
                assert m.specificity == tn / (tn + fp)
            else:
                assert m.specificity is None
            if m.precision is not None and m.sensitivity is not None and (
                m.precision + m.sensitivity
            ) > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.sensitivity / (m.precision + m.sensitivity)
                )
                # equivalent counting form of the same score
                assert m.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
            else:
                assert m.f1 is None


# ---------------------------------------------------------------- labeling


class TestLabel:
    def test_threshold_split(self):
        tset = mk_tset([role_trajectory(0, 5.0), role_trajectory(1, 1.0)])
        examples = label(tset, 3.0)
        assert examples.positives == (0,)
        assert examples.negatives == (1,)
        assert examples.u_plus == 3.0
        assert examples.warnings == ()

    def test_boundary_utility_is_negative(self):
        tset = mk_tset([role_trajectory(0, 3.0), role_trajectory(1, 5.0)])
        examples = label(tset, 3.0)
        assert examples.positives == (1,)
        assert examples.negatives == (0,)

    def test_minus_infinity_marks_everything_positive(self):
        tset = mk_tset([role_trajectory(0, 5.0), role_trajectory(1, -100.0)])
        examples = label(tset, float("-inf"))
        assert examples.positives == (0, 1)
        assert examples.negatives == ()

    def test_threshold_above_maximum_warns(self):
        tset = mk_tset([role_trajectory(0, 5.0)])
        examples = label(tset, 5.0)
        assert examples.positives == ()
        assert examples.warnings
        assert "at or above the maximum" in examples.warnings[0]

    def test_incomplete_only_raises(self):
        tset = mk_tset([role_trajectory(0, 5.0, complete=False)])
        with pytest.raises(InductionError, match="no complete"):
            label(tset, 1.0)

    def test_positive_count_equals_top_segment_size(self, desk_run):
        profile = utility_profile(desk_run)
        segments = detect_segments(profile, peak_height=5.0, min_distance=1)
        assert len(segments) >= 2
        u_plus = profile.values[segments[0].stop]
        examples = label(desk_run, u_plus)
        assert len(examples.positives) == segments[0].stop - segments[0].start


# -------------------------------------------------------------- background


class TestBuildBackground:
    def config(self, **kwargs):
        return InductionConfig(u_plus=50.0, **kwargs)

    def test_hand_enumerated_facts(self):
        tset = mk_tset(
            [
                role_trajectory(
                    0,
                    100.0,
                    extra_facts=[
                        ("managed", ("i0", "bermuda")),
                        ("rentsIP", ("i0", "n0", "ip1")),
                        ("ownsIP", ("i0", "ip1")),
                        ("isChildOf", ("i0", "u0")),  # not in vocabulary
                    ],
                )
            ]
        )
        db = build_background(tset, self.config())
        assert db.excluded == ()
        assert db.warnings == ()
        ex = db.examples[0]
        assert ex.trajectory_id == 0
        assert ex.roles == (
            ("A", "i0"),
            ("B", "n0"),
            ("C", "u0"),
            ("D", "g0"),
        )
        assert ex.facts == tuple(
            sorted(
                [
                    ("managed", "i0", "bermuda"),
                    ("ownsIP", "i0", "ip1"),
                    ("rentsIP", "i0", "n0", "ip1"),
                ]
            )
        )

    def test_shared_role_country_takes_lowest_company_id(self):
        tset = mk_tset(
            [
                role_trajectory(
                    0,
                    100.0,
                    extra_facts=[
                        ("based", ("a9", "ireland")),
                        ("based", ("a1", "ireland")),
                    ],
                )
            ]
        )
        db = build_background(tset, self.config())
        roles = dict(db.examples[0].roles)
        assert roles["A"] == "a1"

    def test_missing_role_country_excludes_with_warning(self):
        stripped = dataclasses.replace(
            role_trajectory(7, 100.0),
            final_state=State.from_facts(
                facts=frozenset(
                    make_fact(p, a) for p, a in ROLE_FACTS if a[1] != "germany"
                ),
                step_count=0,
                transfer=None,
            ),
        )
        db = build_background(mk_tset([stripped]), self.config())
        assert db.examples == ()
        assert db.excluded == (7,)
        assert "germany" in db.warnings[0]

    def test_empty_vocabulary_keeps_no_facts(self):
        tset = mk_tset(
            [role_trajectory(0, 100.0, extra_facts=[("managed", ("i0", "bermuda"))])]
        )
        db = build_background(tset, self.config(vocabulary=()))
        assert db.examples[0].facts == ()
        assert dict(db.examples[0].roles) == {"A": "i0", "B": "n0", "C": "u0", "D": "g0"}

    def test_incomplete_trajectories_skipped(self):
        tset = mk_tset(
            [role_trajectory(0, 100.0), role_trajectory(1, 100.0, complete=False)]
        )
        db = build_background(tset, self.config())
        assert [ex.trajectory_id for ex in db.examples] == [0]


# ---------------------------------------------------------------- clauses


class TestClauseBasics:
    def test_canonical_sorts_dedups_and_renames(self):
        body = [
            ClauseLiteral("rentsIP", ("A", "B", "Zz")),
            ClauseLiteral("ownsIP", ("A", "Zz")),
            ClauseLiteral("ownsIP", ("A", "Zz")),
        ]
        clause = canonical_clause(body)
        assert clause.serialize() == "ownsIP(A, Ip0), rentsIP(A, B, Ip0)"

    def test_render_shapes(self):
        empty = Clause(body=())
        assert empty.render() == "taxScheme(A, B, C, D)."
        one = Clause(body=(ClauseLiteral("managed", ("A", "bermuda")),))
        assert one.render() == "taxScheme(A, B, C, D) :- managed(A, bermuda)."

    def test_clause_covers_matches_brute_force(self):
        tset = small_instance()
        db = build_background(tset, InductionConfig(u_plus=50.0))
        countries = ["bermuda"]
        ips = ["ip1"]
        universe = oracle_literal_universe(countries, ips, DEFAULT_VOCABULARY)
        rng = random.Random(9)
        bodies = [tuple(rng.sample(universe, rng.randint(1, 3))) for _ in range(120)]
        for body in bodies:
            clause = canonical_clause(body)
            covered = clause_covers(clause, db)
            for bit, ex in enumerate(db.examples):
                assert bool(covered >> bit & 1) == oracle_covers(clause, ex)

    def test_covered_ids_union(self):
        tset = separable_instance()
        db = build_background(tset, InductionConfig(u_plus=50.0))
        c_bermuda = Clause(body=(ClauseLiteral("managed", ("A", "bermuda")),))
        c_edge = Clause(body=(ClauseLiteral("rentsIP", ("A", "B", "Ip0")),))
        both = covered_ids([c_bermuda, c_edge], db)
        assert both == frozenset({0, 1, 2})
        assert covered_ids([], db) == frozenset()


# ------------------------------------------------- coverage on example masks

# Terms of random clause bodies: role variables, fresh variables that also
# stand in company positions, and constants, company ones included.
_COMPANIES = ("i0", "n0", "u0", "g0", "x1")
_COUNTRIES = ("bermuda", "ireland")
_IPS = ("ip1", "ip2")
_FRESH = ("Ip0", "Ip1")
_COMPANY_TERMS = HEAD_VARIABLES + _FRESH + ("i0", "n0", "x1")
_VOCABULARY_FACTS = (
    [("managed", c, k) for c in _COMPANIES for k in _COUNTRIES]
    + [("ownsIP", c, ip) for c in _COMPANIES for ip in _IPS]
    + [("rentsIP", a, b, ip) for a in _COMPANIES for b in _COMPANIES for ip in _IPS]
)

random_literals = st.one_of(
    st.builds(
        lambda c, k: ClauseLiteral("managed", (c, k)),
        st.sampled_from(_COMPANY_TERMS),
        st.sampled_from(_COUNTRIES + _FRESH),
    ),
    st.builds(
        lambda c, ip: ClauseLiteral("ownsIP", (c, ip)),
        st.sampled_from(_COMPANY_TERMS),
        st.sampled_from(_IPS + _FRESH),
    ),
    st.builds(
        lambda a, b, ip: ClauseLiteral("rentsIP", (a, b, ip)),
        st.sampled_from(_COMPANY_TERMS),
        st.sampled_from(_COMPANY_TERMS),
        st.sampled_from(_IPS + _FRESH),
    ),
)
random_bodies = st.lists(random_literals, max_size=4).map(tuple)


@st.composite
def random_backgrounds(draw):
    """Up to six examples over two IPs; every example binds A-C, some D too."""
    variables = draw(st.sampled_from([HEAD_VARIABLES, HEAD_VARIABLES[:3]]))
    examples = []
    for tid in range(draw(st.integers(min_value=1, max_value=6))):
        roles = tuple((v, draw(st.sampled_from(_COMPANIES))) for v in variables)
        facts = draw(st.sets(st.sampled_from(_VOCABULARY_FACTS), max_size=10))
        examples.append(
            ExampleBackground(trajectory_id=tid, facts=tuple(sorted(facts)), roles=roles)
        )
    return BackgroundDB(examples=tuple(examples))


def full_rename(body) -> Clause:
    """canonical_clause without its identity-renaming shortcut."""
    ordered = sorted(set(body), key=lambda lit: (lit.predicate, lit.args))
    renaming: dict[str, str] = {}
    for lit in ordered:
        for term in lit.args:
            if is_variable(term) and term not in HEAD_VARIABLES and term not in renaming:
                renaming[term] = f"Ip{len(renaming)}"
    renamed = [
        ClauseLiteral(lit.predicate, tuple(renaming.get(t, t) for t in lit.args))
        for lit in ordered
    ]
    return Clause(body=tuple(sorted(set(renamed), key=lambda lit: (lit.predicate, lit.args))))


class TestCoverageMasks:
    @given(db=random_backgrounds(), bodies=st.lists(random_bodies, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, db, bodies):
        clauses = [Clause(body=body) for body in bodies]
        union: set[int] = set()
        for clause in clauses:
            want = {ex.trajectory_id for ex in db.examples if oracle_covers(clause, ex)}
            assert db.ids(clause_covers(clause, db)) == want
            assert covered_ids([clause], db) == want
            union |= want
        assert covered_ids(clauses, db) == union

    @given(db=random_backgrounds())
    @settings(max_examples=50, deadline=None)
    def test_empty_body_covers_every_example(self, db):
        assert clause_covers(Clause(body=()), db) == db.mask(db.bit_of)
        assert covered_ids([Clause(body=())], db) == frozenset(db.bit_of)

    def test_free_head_variable_ranges_over_companies(self):
        # without D in the role binding, D is an ordinary variable
        config = InductionConfig(u_plus=50.0, role_binding=DEFAULT_ROLE_BINDING[:3])
        db = build_background(small_instance(), config)
        assert db.role_variables == frozenset("ABC")
        reverse = Clause(body=(ClauseLiteral("rentsIP", ("D", "A", "ip1")),))
        assert covered_ids([reverse], db) == frozenset({4})
        for clause in (reverse, Clause(body=(ClauseLiteral("rentsIP", ("A", "D", "Ip0")),))):
            want = {ex.trajectory_id for ex in db.examples if oracle_covers(clause, ex)}
            assert covered_ids([clause], db) == want

    def test_free_variables_leave_no_cyclic_garbage(self):
        db = build_background(small_instance(), InductionConfig(u_plus=50.0))
        # E and Ip0 are free: the cover recurses over their values
        clause = Clause(body=(ClauseLiteral("rentsIP", ("E", "B", "Ip0")),))
        want = {ex.trajectory_id for ex in db.examples if oracle_covers(clause, ex)}
        assert want
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                assert db.ids(clause_covers(clause, db)) == want
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    def test_masks_and_ids_follow_example_order(self):
        db = build_background(small_instance(), InductionConfig(u_plus=50.0))
        reversed_db = BackgroundDB(examples=tuple(reversed(db.examples)))
        assert db.mask([0, 5, 99]) == 0b100001
        assert reversed_db.mask([0, 5, 99]) == 0b100001
        assert reversed_db.mask([0, 4]) == 0b100010
        assert reversed_db.ids(0b100010) == frozenset({0, 4})

    def test_duplicate_example_ids_are_rejected(self):
        db = build_background(small_instance(), InductionConfig(u_plus=50.0))
        with pytest.raises(InductionError, match="duplicate example id 0"):
            BackgroundDB(examples=(db.examples[0], db.examples[0]))

    def test_examples_must_bind_the_same_role_variables(self):
        full = build_background(small_instance(), InductionConfig(u_plus=50.0))
        short = build_background(
            small_instance(),
            InductionConfig(u_plus=50.0, role_binding=DEFAULT_ROLE_BINDING[:3]),
        )
        with pytest.raises(InductionError, match="other role variables"):
            BackgroundDB(examples=(full.examples[0], short.examples[1]))


class TestCanonicalClause:
    @given(body=random_bodies)
    @settings(max_examples=300, deadline=None)
    def test_identity_shortcut_equals_full_rename(self, body):
        assert canonical_clause(body) == full_rename(body)

    def test_identity_and_proper_renamings(self):
        already = [
            ClauseLiteral("rentsIP", ("A", "B", "Ip0")),
            ClauseLiteral("ownsIP", ("B", "Ip1")),
        ]
        renamed = [ClauseLiteral("ownsIP", ("A", "Ip1")), ClauseLiteral("ownsIP", ("B", "Ip0"))]
        for body in (already, renamed):
            assert canonical_clause(body) == full_rename(body)
        assert canonical_clause(renamed).serialize() == "ownsIP(A, Ip0), ownsIP(B, Ip1)"


# ---------------------------------------------------------------- search


class TestInduce:
    def setup(self, tset, **kwargs):
        config = InductionConfig(u_plus=50.0, **kwargs)
        examples = label(tset, config.u_plus)
        db = build_background(tset, config)
        return config, examples, db

    def test_separable_instance_yields_perfect_single_clause(self):
        config, examples, db = self.setup(separable_instance())
        hypothesis = induce(examples, db, config)
        assert len(hypothesis.clauses) == 1
        assert hypothesis.clauses[0].serialize() == "managed(A, bermuda)"
        assert hypothesis.clause_metrics[0].f1 == 1.0
        overall = evaluate(hypothesis, examples, db)
        assert overall.accuracy == 1.0
        assert overall.f1 == 1.0
        assert hypothesis.warnings == ()

    def test_first_clause_matches_exhaustive_best_f1(self):
        config, examples, db = self.setup(small_instance(), max_literals=2)
        hypothesis = induce(examples, db, config)
        best = oracle_best_single_clause(
            db, examples.positives, examples.negatives, DEFAULT_VOCABULARY, 2
        )
        assert best == pytest.approx(6.0 / 7.0)
        assert hypothesis.clause_metrics[0].f1 == pytest.approx(best)

    def test_small_instance_overall_metrics(self):
        config, examples, db = self.setup(small_instance())
        hypothesis = induce(examples, db, config)
        overall = evaluate(hypothesis, examples, db)
        assert overall.true_positives == 3
        assert overall.false_negatives == 0
        assert overall.sensitivity == 1.0
        # id 3 shares the positive structure and must stay a false positive
        assert overall.false_positives >= 1

    def test_clause_shape_invariants(self):
        config, examples, db = self.setup(small_instance(), max_literals=3)
        hypothesis = induce(examples, db, config)
        for clause in hypothesis.clauses:
            assert 1 <= len(clause.body) <= config.max_literals
            assert clause.serialize() == canonical_clause(clause.body).serialize()
            for variable in clause.variables():
                assert variable in HEAD_VARIABLES or variable.startswith("Ip")

    def test_empty_positive_set_raises(self):
        tset = separable_instance()
        config = InductionConfig(u_plus=1000.0)
        examples = label(tset, config.u_plus)
        db = build_background(tset, config)
        with pytest.raises(InductionError, match="empty positive"):
            induce(examples, db, config)

    def test_positives_all_excluded_raises(self):
        config, examples, db = self.setup(separable_instance())
        negatives_only = BackgroundDB(
            examples=tuple(
                ex for ex in db.examples if ex.trajectory_id in examples.negatives
            )
        )
        with pytest.raises(InductionError, match="all positive examples were excluded"):
            induce(examples, negatives_only, config)

    def test_positive_no_literal_covers_is_left_with_a_warning(self):
        # positive 1 holds no vocabulary fact, so after the first clause no
        # refinement covers it
        tset = mk_tset(
            [
                role_trajectory(0, 100.0, extra_facts=[("managed", ("i0", "bermuda"))]),
                role_trajectory(1, 100.0),
                role_trajectory(2, 10.0),
            ]
        )
        config, examples, db = self.setup(tset)
        hypothesis = induce(examples, db, config)
        assert [c.serialize() for c in hypothesis.clauses] == ["managed(A, bermuda)"]
        assert hypothesis.warnings == (
            "1 positive example(s) left uncovered; no further clause has positive score",
        )

    def test_clause_budget_warning(self):
        # the two positives share no vocabulary fact: one clause each
        tset = mk_tset(
            [
                role_trajectory(0, 100.0, extra_facts=[("managed", ("i0", "bermuda"))]),
                role_trajectory(1, 100.0, extra_facts=[("ownsIP", ("n0", "ip1"))]),
                role_trajectory(2, 10.0),
            ]
        )
        config, examples, db = self.setup(tset, max_clauses=1)
        hypothesis = induce(examples, db, config)
        assert len(hypothesis.clauses) == 1
        assert hypothesis.warnings == (
            "clause budget 1 reached with 1 positive example(s) uncovered",
        )
        config, examples, db = self.setup(tset, max_clauses=2)
        hypothesis = induce(examples, db, config)
        assert len(hypothesis.clauses) == 2
        assert hypothesis.warnings == ()

    def test_identical_structures_keep_false_positive(self):
        # positives and negatives are structurally identical
        tset = mk_tset(
            [
                role_trajectory(0, 100.0, extra_facts=[("managed", ("i0", "bermuda"))]),
                role_trajectory(1, 10.0, extra_facts=[("managed", ("i0", "bermuda"))]),
            ]
        )
        config, examples, db = self.setup(tset)
        hypothesis = induce(examples, db, config)
        # the best clause still covers the positive; it just cannot exclude
        # the twin negative, so coverage stops after one clause
        assert len(hypothesis.clauses) <= 1
        if hypothesis.clauses:
            assert hypothesis.clause_metrics[0].f1 == pytest.approx(2 / 3)

    def test_candidates_fill_positions_by_entity_type(self):
        """For the default vocabulary the typing rule yields exactly the
        literals of the oracle's hand-written universe; one fresh variable
        is offered to a clause that uses none."""
        db = build_background(small_instance(), InductionConfig(u_plus=50.0))
        pools = _constant_pools(db)
        assert (pools["country"], pools["ip"]) == (("bermuda",), ("ip1",))
        candidates = _candidate_literals(0, DEFAULT_VOCABULARY, pools)
        assert len(candidates) == len(set(candidates))
        assert set(candidates) == set(
            oracle_literal_universe(["bermuda"], ["ip1"], DEFAULT_VOCABULARY, max_fresh=1)
        )

    def test_vocabulary_beyond_the_default_is_searched(self):
        # B is a child of A in the positives only
        child = ("isChildOf", ("n0", "i0"))
        other = ("isChildOf", ("u0", "g0"))
        tset = mk_tset(
            [
                role_trajectory(0, 100.0, extra_facts=[child]),
                role_trajectory(1, 100.0, extra_facts=[child, other]),
                role_trajectory(2, 10.0, extra_facts=[other]),
                role_trajectory(3, 10.0, extra_facts=[]),
            ]
        )
        config, examples, db = self.setup(tset, vocabulary=("isChildOf",))
        hypothesis = induce(examples, db, config)
        assert [c.serialize() for c in hypothesis.clauses] == ["isChildOf(B, A)"]
        assert hypothesis.clause_metrics[0].f1 == 1.0
        assert hypothesis.warnings == ()

    # Hypotheses learned from desk-scale runs of the bundled corpus (20
    # iterations x 200 expansions), at a percentile of the complete
    # utilities as u_plus, with the default configuration.  Each pins the
    # clauses, per-clause (tp, fp, tn, fn) and overall (tp, fp, tn, fn, f1).
    DESK_HYPOTHESES = {
        (7, 75): (
            [
                "rentsIP(B, D, Ip0)",
                "managed(A, bermuda), rentsIP(D, B, Ip0)",
                "rentsIP(A, B, Ip0), rentsIP(A, D, Ip0)",
            ],
            [(4, 0, 18, 2), (1, 0, 18, 5), (1, 0, 18, 5)],
            (6, 0, 18, 0, 1.0),
        ),
        (5, 50): (
            ["rentsIP(C, B, Ip0)", "rentsIP(A, D, Ip0)"],
            [(7, 4, 6, 2), (4, 0, 10, 5)],
            (9, 4, 6, 0, 0.8181818181818181),
        ),
    }

    @pytest.mark.parametrize("seed, percentile", sorted(DESK_HYPOTHESES))
    def test_desk_run_hypothesis(
        self, seed, percentile, desk_run, corpus_ruleset, corpus_scenario
    ):
        if seed == desk_run.params.seed:
            tset = desk_run
        else:
            params = dataclasses.replace(desk_run.params, seed=seed)
            tset = explore(corpus_ruleset, corpus_scenario, params)
        u_plus = float(np.percentile(utility_profile(tset).values, percentile))
        config = InductionConfig(u_plus=u_plus)
        examples = label(tset, u_plus)
        db = build_background(tset, config)
        hypothesis = induce(examples, db, config)
        overall = evaluate(hypothesis, examples, db)
        clauses, per_clause, totals = self.DESK_HYPOTHESES[(seed, percentile)]
        assert [c.serialize() for c in hypothesis.clauses] == clauses
        assert [
            (m.true_positives, m.false_positives, m.true_negatives, m.false_negatives)
            for m in hypothesis.clause_metrics
        ] == per_clause
        assert (
            overall.true_positives,
            overall.false_positives,
            overall.true_negatives,
            overall.false_negatives,
            overall.f1,
        ) == totals
        assert hypothesis.warnings == ()

    def test_evaluate_is_order_invariant(self):
        config, examples, db = self.setup(small_instance())
        hypothesis = induce(examples, db, config)
        reversed_db = BackgroundDB(
            examples=tuple(reversed(db.examples)),
            excluded=db.excluded,
            warnings=db.warnings,
        )
        assert evaluate(hypothesis, examples, db) == evaluate(
            hypothesis, examples, reversed_db
        )


# ------------------------------------------------------------ scheme graph


def hypothesis_with_f1(serialized_bodies_and_f1s) -> Hypothesis:
    clauses = []
    metrics = []
    for body, f1 in serialized_bodies_and_f1s:
        clauses.append(Clause(body=tuple(body)))
        metrics.append(
            Metrics(
                true_positives=9,
                false_positives=0,
                true_negatives=1,
                false_negatives=0,
                accuracy=1.0,
                precision=1.0,
                specificity=1.0,
                sensitivity=1.0,
                f1=f1,
            )
        )
    return Hypothesis(clauses=tuple(clauses), clause_metrics=tuple(metrics))


class TestSchemeGraph:
    def test_clause_literals_become_weighted_edges(self):
        hypothesis = hypothesis_with_f1(
            [
                (
                    [
                        ClauseLiteral("managed", ("A", "bermuda")),
                        ClauseLiteral("rentsIP", ("A", "B", "Ip0")),
                    ],
                    0.9,
                )
            ]
        )
        graph = scheme_graph(hypothesis)
        rows = [(e.source, e.label, e.target, e.weight) for e in graph.edges]
        assert rows == [
            ("A", "managed", "bermuda", 0.9),
            ("A", "rents", "B", 0.9),
        ]

    def test_duplicate_edges_keep_max_weight(self):
        lit = ClauseLiteral("ownsIP", ("A", "Ip0"))
        hypothesis = hypothesis_with_f1([([lit], 0.5), ([lit], 0.8)])
        graph = scheme_graph(hypothesis)
        assert len(graph.edges) == 1
        assert graph.edges[0].weight == 0.8
        assert graph.edges[0].label == "owns"

    def test_top_k_truncates_by_weight(self):
        entries = [
            ([ClauseLiteral("managed", ("A", f"c{i}"))], 0.1 * i)
            for i in range(1, 7)
        ]
        graph = scheme_graph(hypothesis_with_f1(entries), top_k=3)
        assert [e.weight for e in graph.edges] == pytest.approx([0.6, 0.5, 0.4])

    def test_every_binary_literal_is_an_edge(self):
        lits = [
            ClauseLiteral("isChildOf", ("B", "A")),
            ClauseLiteral("based", ("C", "usa")),
            ClauseLiteral("exists", ("D",)),
        ]
        graph = scheme_graph(hypothesis_with_f1([(lits, 0.5)]))
        rows = [(e.source, e.label, e.target) for e in graph.edges]
        assert rows == [("B", "isChildOf", "A"), ("C", "based", "usa")]

    def test_top_k_below_one_rejected(self):
        hypothesis = hypothesis_with_f1([([ClauseLiteral("ownsIP", ("A", "Ip0"))], 0.5)])
        with pytest.raises(InductionError, match="top_k must be at least 1"):
            scheme_graph(hypothesis, top_k=0)
        assert len(scheme_graph(hypothesis, top_k=1).edges) == 1

    def test_empty_hypothesis_empty_graph(self):
        graph = scheme_graph(Hypothesis(clauses=(), clause_metrics=()))
        assert graph.edges == ()

    def test_dot_and_csv_rendering(self, tmp_path):
        hypothesis = hypothesis_with_f1(
            [([ClauseLiteral("managed", ("A", "bermuda"))], 0.9)]
        )
        graph = scheme_graph(hypothesis)
        dot = tmp_path / "scheme.dot"
        write_dot(graph, dot)
        text = dot.read_text()
        assert text.startswith("digraph scheme {")
        assert '"A" -> "bermuda" [label="managed", weight=0.9];' in text
        csv_path = tmp_path / "edges.csv"
        write_edges_csv(graph, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "source,target,label,weight"
        assert lines[1] == "A,bermuda,managed,0.9"


# ------------------------------------------------------------- round trips


class TestHypothesisSerialization:
    def build(self):
        tset = small_instance()
        config = InductionConfig(u_plus=50.0)
        examples = label(tset, config.u_plus)
        db = build_background(tset, config)
        hypothesis = induce(examples, db, config)
        overall = evaluate(hypothesis, examples, db)
        return hypothesis, examples, overall

    def test_json_round_trip(self, tmp_path):
        hypothesis, examples, overall = self.build()
        path = tmp_path / "hypothesis.json"
        write_hypothesis_json(hypothesis, examples, overall, path)
        back, u_plus, back_overall = read_hypothesis_json(path)
        assert u_plus == examples.u_plus
        assert back_overall == overall
        assert [c.serialize() for c in back.clauses] == [
            c.serialize() for c in hypothesis.clauses
        ]
        assert back.clause_metrics == hypothesis.clause_metrics

    def test_json_reader_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(RunFileError):
            read_hypothesis_json(path)

    def test_text_rendering_carries_scores(self, tmp_path):
        hypothesis, _, overall = self.build()
        path = tmp_path / "hypothesis.txt"
        write_hypothesis_text(hypothesis, overall, path)
        text = path.read_text()
        assert "% clause f1" in text
        assert "taxScheme(A, B, C, D) :-" in text
        assert "% overall accuracy" in text

    def test_text_rendering_of_a_clause_whose_f1_is_undefined(self, tmp_path):
        path = tmp_path / "hypothesis.txt"
        clause = Clause(body=(ClauseLiteral("managed", ("A", "bermuda")),))
        undefined = Metrics.from_counts(0, 0, 2, 2)
        hypothesis = Hypothesis(clauses=(clause,), clause_metrics=(undefined,))
        write_hypothesis_text(hypothesis, undefined, path)
        assert path.read_text().splitlines()[0] == "% clause f1 undefined"

    def test_text_rendering_of_an_empty_hypothesis(self, tmp_path):
        path = tmp_path / "hypothesis.txt"
        empty = Hypothesis(clauses=(), clause_metrics=())
        write_hypothesis_text(empty, Metrics.from_counts(0, 0, 2, 2), path)
        assert path.read_text().splitlines() == [
            "% empty hypothesis",
            "% overall accuracy 0.5000 f1 undefined",
        ]


# ---------------------------------------------------------- configuration


class TestInductionConfig:
    def test_default_role_binding(self):
        assert DEFAULT_ROLE_BINDING == (
            ("A", "ireland"),
            ("B", "netherlands"),
            ("C", "usa"),
            ("D", "germany"),
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_literals": 0},
            {"beam_width": 0},
            {"max_clauses": 0},
            {"vocabulary": ("nonsense",)},
            {"role_binding": (("lower", "ireland"),)},
            {"role_binding": (("A", "ireland"), ("A", "usa"))},
            {"role_binding": (("A", "Var"),)},
            {"u_plus": float("nan")},
            {"u_plus": float("inf")},
            # a role variable is a head variable, or it would bind nothing
            {"role_binding": (("X", "ireland"),)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InductionError):
            InductionConfig(**{"u_plus": 1.0, **kwargs})
