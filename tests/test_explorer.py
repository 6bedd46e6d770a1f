"""Search tests: selection mathematics, exhaustive-oracle equality,
reproducibility of the serialized trajectory stream.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loophound.explorer as explorer_module
import loophound.join as join_module
from loophound.dsl import parse_ruleset, parse_scenario
from loophound.economy import Ledgers, settle
from loophound.explorer import (
    ExplorerError,
    depth_weight,
    explore,
    quartiles,
    search_world,
    selection_distribution,
    trajectory_utility,
)
from loophound.kernel import KernelError, State, Transfer, applicable_actions, apply_action
from loophound.runfiles import RunFileError, SearchParams, Trajectory, read_jsonl, write_jsonl
from loophound.taxation import DEDUCTIBLE, EXEMPTION, evaluate_state

from conftest import TOY_RULESET, TOY_SCENARIO
from oracles import (
    bfs_oracle,
    evaluate_from_scratch,
    path_transfer,
    recorded_sets,
    selection_with_percentile,
)


# -------------------------------------------------------------- parameters


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert (p.beta, p.tau0, p.max_steps) == (0.01, 5.0, 12)
        assert (p.iterations, p.expansions) == (50, 1000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau0": 0.0},
            {"beta": -0.5},
            {"iterations": 0},
            {"expansions": 0},
            {"max_steps": 0},
            {"beta": math.inf},
            {"beta": math.nan},
            {"tau0": math.nan},
            {"tau0": math.inf},
            {"seed": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchParams(**kwargs)


# ------------------------------------------------------- selection weights


class TestDepthWeight:
    def test_exact_values(self):
        assert depth_weight(0, 0.01) == 1.0
        assert depth_weight(100, 0.01) == 0.5
        assert depth_weight(50, 0.01) == 2.0 / 3.0

    def test_zero_beta_is_constant(self):
        for t in (0, 1, 10, 10_000):
            assert depth_weight(t, 0.0) == 1.0

    def test_negative_iteration_rejected(self):
        with pytest.raises(ExplorerError):
            depth_weight(-1, 0.01)


def softmax_oracle(x: np.ndarray) -> np.ndarray:
    """Plain softmax; no stabilizing shift, for use on small inputs only."""
    e = np.exp(np.asarray(x, dtype=float))
    return e / e.sum()


def distribution_oracle(depths, utilities, t, beta, tau0):
    depths = np.asarray(depths, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    p_depth = softmax_oracle(-depths / tau0)
    q1, q3 = np.percentile(utilities, [25.0, 75.0])
    sigma = max(1.0, q3 - q1)
    p_util = softmax_oracle(utilities / sigma)
    alpha = 1.0 / (1.0 + beta * t)
    return alpha * p_depth + (1.0 - alpha) * p_util


class TestSelectionDistribution:
    def test_matches_independent_softmax_mixture(self):
        rng = np.random.default_rng(123)
        for t in (0, 3, 40, 500):
            for size in (1, 2, 5, 40):
                depths = rng.integers(0, 12, size=size).astype(float)
                utilities = rng.normal(500.0, 120.0, size=size)
                got = selection_distribution(depths, utilities, t, 0.01, 5.0)
                want = distribution_oracle(depths, utilities, t, 0.01, 5.0)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_single_node(self):
        got = selection_distribution([3.0], [100.0], 5, 0.01, 5.0)
        assert got.tolist() == [1.0]

    def test_identical_nodes_split_evenly(self):
        got = selection_distribution([2.0, 2.0], [50.0, 50.0], 9, 0.01, 5.0)
        assert got.tolist() == [0.5, 0.5]

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            got = selection_distribution(
                rng.integers(0, 12, size=n).astype(float),
                rng.normal(0.0, 300.0, size=n),
                int(rng.integers(0, 200)),
                0.01,
                5.0,
            )
            assert abs(float(got.sum()) - 1.0) < 1e-12
            assert (got >= 0.0).all()

    def test_zero_beta_gives_pure_depth_prior(self):
        depths = np.array([0.0, 1.0, 2.0, 7.0])
        utilities = np.array([5.0, 900.0, -20.0, 340.0])
        got = selection_distribution(depths, utilities, 999, 0.0, 5.0)
        want = softmax_oracle(-depths / 5.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ExplorerError):
            selection_distribution([1.0, 2.0], [1.0], 0, 0.01, 5.0)
        with pytest.raises(ExplorerError):
            selection_distribution([], [], 0, 0.01, 5.0)


# frontier utilities: ties, both zeros, and magnitudes up to 1e300, whose
# differences stay finite
UTILITIES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 22.784, 1e300, -1e300]),
        st.floats(min_value=-1e300, max_value=1e300),
        st.floats(min_value=-1e3, max_value=1e3),
    ),
    min_size=1,
    max_size=200,
)


class TestQuartiles:
    @given(values=UTILITIES)
    @example(values=[-0.0])
    @example(values=[0.0])
    @example(values=[-0.0, 0.0, -0.0, 0.0, 0.0])
    @example(values=[0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0])
    @example(values=[5.0] * 7)
    @example(values=[-1e300, 1e300, 3.0])
    @settings(max_examples=400, deadline=None)
    def test_equal_numpy_percentile_bit_for_bit(self, values):
        # one partition at numpy's own positions, then the shared percentile:
        # the same 64 bits as numpy's, the sign of a zero included
        u = np.array(values)
        got = np.array(quartiles(u))
        assert got.tobytes() == np.percentile(u, [25.0, 75.0]).tobytes()
        assert u.tolist() == values  # the input is not reordered

    @given(
        frontier=st.lists(
            st.tuples(st.integers(0, 12), st.floats(min_value=-1e6, max_value=1e6)),
            min_size=1,
            max_size=120,
        ),
        t=st.integers(0, 500),
        beta=st.sampled_from([0.0, 0.01, 0.5]),
        tau0=st.sampled_from([0.5, 5.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_selection_equals_the_percentile_oracle(self, frontier, t, beta, tau0):
        depths = np.array([float(d) for d, _ in frontier])
        utilities = np.array([u for _, u in frontier])
        got = selection_distribution(depths, utilities, t, beta, tau0)
        want = selection_with_percentile(depths, utilities, t, beta, tau0)
        assert got.tobytes() == want.tobytes()


class TestTrajectoryUtility:
    def test_examples(self):
        assert trajectory_utility(100.0, 4, 1.0) == 96.0
        a = trajectory_utility(250.0, 4, 1.0)
        b = trajectory_utility(250.0, 6, 1.0)
        assert a - b == 2.0  # same profit, two extra unit-cost actions

    def test_invalid_inputs(self):
        with pytest.raises(ExplorerError):
            trajectory_utility(1.0, 3, 0.0)
        with pytest.raises(ExplorerError):
            trajectory_utility(1.0, -1, 1.0)


# --------------------------------------------------- exhaustive BFS oracle


class TestExhaustiveEquality:
    def test_search_equals_bfs_when_budget_covers_frontier(
        self, toy_ruleset, toy_scenario
    ):
        """With expansions >= frontier size the sampler degenerates to BFS."""
        max_steps = 6
        params = SearchParams(
            seed=0, iterations=25, expansions=100_000, max_steps=max_steps
        )
        tset = explore(toy_ruleset, toy_scenario, params)
        assert recorded_sets(tset) == bfs_oracle(toy_ruleset, toy_scenario, max_steps)

    def test_recorded_states_are_unique(self, toy_ruleset, toy_scenario):
        params = SearchParams(seed=0, iterations=25, expansions=100_000, max_steps=5)
        tset = explore(toy_ruleset, toy_scenario, params)
        keys = [t.final_state.key() for t in tset.trajectories]
        assert len(keys) == len(set(keys))

    def test_trajectories_replay_to_their_final_state(
        self, toy_ruleset, toy_scenario
    ):
        """Each recorded action path, replayed, reproduces the stored facts."""
        params = SearchParams(seed=3, iterations=10, expansions=50, max_steps=5)
        tset = explore(toy_ruleset, toy_scenario, params)
        assert tset.trajectories
        for t in tset.trajectories:
            state = replay(toy_ruleset, toy_scenario, t.actions)
            assert state.key() == t.final_state.key()
            assert state.step_count == t.length


# the toy world with two declared companies, q before p, and the pool
# reversed: neither is in sorted order
UNSORTED_SCENARIO = (
    TOY_SCENARIO.replace("pool c1 c2.", "pool c2 c1.")
    .replace("company p.", "company q.\ncompany p.")
    .replace("fact ownsIP(p, ip1).", "fact ownsIP(p, ip1).\nfact based(q, ireland).")
)


class TestSearchWorld:
    """``search_world`` builds the world ``explore`` searches: the rules
    over the sorted companies and pool, the countries and the IPs, and the
    root on that world's table."""

    DOMAINS = {
        "toy": (("c1", "c2", "p"), ("usa", "ireland"), ("ip1",)),
        "corpus": (
            ("c1", "c2", "c3", "p"),
            ("usa", "germany", "netherlands", "ireland", "bermuda"),
            ("ip1",),
        ),
    }

    @pytest.mark.parametrize("name", ["toy", "corpus"])
    def test_explore_searches_the_world_it_builds(self, request, monkeypatch, name):
        ruleset = request.getfixturevalue(f"{name}_ruleset")
        scenario_doc = request.getfixturevalue(f"{name}_scenario")
        rules, root = search_world(ruleset.action_rules, scenario_doc)
        domains = rules.domains
        assert (domains.companies, domains.countries, domains.ips) == self.DOMAINS[name]
        assert rules.pool == scenario_doc.scenario.company_pool
        for group in root.groups:
            assert rules.table[group] is group
            assert all(rules.table[row] is row for row in group)
        searched = []

        def spy(state, world):
            searched.append((state, world))
            return applicable_actions(state, world)

        monkeypatch.setattr(explorer_module, "applicable_actions", spy)
        explore(ruleset, scenario_doc, SearchParams(seed=1, iterations=3, expansions=5))
        (world,) = {world for _, world in searched}
        assert searched[0][0] == root
        assert (world.domains, world.pool, world.ordered) == (
            domains, rules.pool, rules.ordered
        )

    def test_search_over_unsorted_companies_equals_bfs(self, toy_ruleset):
        scenario_doc = parse_scenario(UNSORTED_SCENARIO).document
        assert scenario_doc.state.companies == ("q", "p")
        rules, _ = search_world(toy_ruleset.action_rules, scenario_doc)
        assert rules.domains.companies == ("c1", "c2", "p", "q")
        params = SearchParams(seed=0, iterations=25, expansions=100_000, max_steps=6)
        want = bfs_oracle(toy_ruleset, scenario_doc, 6)
        assert recorded_sets(explore(toy_ruleset, scenario_doc, params)) == want
        assert all(want)


class TestCompiledOnce:
    def test_parsing_generates_no_code_and_a_search_compiles_each_rule_once(
        self, monkeypatch, corpus_ruleset_text, corpus_scenario_text
    ):
        """A rule is a checked value: parsing compiles nothing, and one search
        compiles each action rule's grounding join once and its reductions
        into one projection."""
        compiled = []
        compile_source = join_module._compile

        def spy(source, name, namespace):
            compiled.append(name)
            return compile_source(source, name, namespace)

        monkeypatch.setattr(join_module, "_compile", spy)
        ruleset = parse_ruleset(corpus_ruleset_text).document
        scenario_doc = parse_scenario(corpus_scenario_text).document
        assert compiled == []
        explore(ruleset, scenario_doc, SearchParams(seed=7, iterations=20, expansions=200))
        assert len(ruleset.action_rules) == 7
        assert sorted(compiled) == ["_project"] + ["_solve"] * 7


class TestActionCost:
    def test_library_explore_charges_the_scenario_action_cost(self, toy_ruleset):
        scenario_doc = parse_scenario(
            TOY_SCENARIO.replace("set action_cost 1.", "set action_cost 2.")
        ).document
        params = SearchParams(seed=3, iterations=6, expansions=40, max_steps=3)
        tset = explore(toy_ruleset, scenario_doc, params)
        assert tset.cost_coefficient == 2.0
        assert {t.length for t in tset.trajectories} >= {2, 3}
        for t in tset.trajectories:
            assert t.phi == 2 * t.length
            assert t.utility == t.p - t.phi


def replay(ruleset, scenario_doc, actions):
    """The state an action path reaches from the scenario's initial state,
    each step applied in a fresh world."""
    _, state = search_world(ruleset.action_rules, scenario_doc)
    for act in actions:
        state = apply_action(state, act, search_world(ruleset.action_rules, scenario_doc)[0])
    return state


def renamed_ruleset(text: str):
    """``text`` with the transfer rule's parameters ``From`` and ``To``
    renamed ``Giver`` and ``Taker``: their sorted order, and with it the
    order of groundings, stays the same."""
    rule = 'action transferIP(From, To, Ip) ref "transfer" {'
    start = text.index(rule)
    end = text.index("}", start)
    block = re.sub(r"\bFrom\b", "Giver", text[start:end])
    block = re.sub(r"\bTo\b", "Taker", block)
    result = parse_ruleset(text[:start] + block + text[end:])
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.document


@pytest.fixture(scope="module")
def renamed_corpus(corpus_ruleset_text):
    return renamed_ruleset(corpus_ruleset_text)


def assert_evaluates_to_its_record(ruleset, scenario_doc, t):
    """``t``'s path, replayed from the root with fresh tables, reaches its
    final state, which carries the path's sale and evaluates to ``t``'s
    record with nothing memoized."""
    state = replay(ruleset, scenario_doc, t.actions)
    final = t.final_state
    assert state.groups == final.groups
    assert state.step_count == final.step_count == t.length
    assert state.transfer == final.transfer == path_transfer(ruleset, t.actions)
    transactions, assessments, p, complete = evaluate_from_scratch(
        state, scenario_doc.scenario, ruleset.reduction_rules, ruleset.rates()
    )
    assert transactions == t.transactions
    assert tuple(assessments) == t.assessments
    assert p == t.p
    assert complete == t.complete
    return state


# Two routes of different lengths to one fact set, with the sale at a
# different step on each: "seat-direct" moves a child's seat to ireland in
# one step, "seat-via" then "seat-move" take two.
SEAT_TRANSFER_RULES = """
action rentIP(Licensor, Renter, Ip) ref "seat-direct" {
  pre: isChildOf(Renter, Licensor), ownsIP(X, Ip), not managed(Renter, _);
  eff: managed(Renter, ireland);
}

action rentIP(Licensor, Renter, Ip) ref "seat-via" {
  pre: isChildOf(Renter, Licensor), ownsIP(X, Ip), not managed(Renter, _);
  eff: managed(Renter, usa);
}

action rentIP(Licensor, Renter, Ip) ref "seat-move" {
  pre: isChildOf(Renter, Licensor), ownsIP(X, Ip), managed(Renter, usa);
  eff: not managed(Renter, usa), managed(Renter, ireland);
}
"""


class TestReplayOracle:
    """Each recorded trajectory of a tiny search, rebuilt from the root with
    fresh tables and every check on every step, and evaluated with nothing
    memoized, gives its record."""

    # (iterations, expansions, max_steps): 4 x 20 records step-capped paths
    # only; 14 x 40 at 10 steps also reaches complete ones on both rulesets
    SHAPES = ((4, 20, 4), (14, 40, 10))

    @pytest.mark.parametrize("ruleset_name", ["corpus", "statutory", "renamed"])
    def test_each_trajectory_rebuilds_and_evaluates_to_its_record(
        self, corpus_ruleset, renamed_corpus, corpus_scenario, ruleset_name
    ):
        ruleset = {
            "corpus": corpus_ruleset,
            "statutory": dataclasses.replace(corpus_ruleset, reduction_rules=()),
            "renamed": renamed_corpus,
        }[ruleset_name]
        records = []
        for iterations, expansions, max_steps in self.SHAPES:
            params = SearchParams(
                seed=7,
                iterations=iterations,
                expansions=expansions,
                max_steps=max_steps,
            )
            tset = explore(ruleset, corpus_scenario, params)
            records += [(t, max_steps) for t in tset.trajectories]
        assert any(t.complete for t, _ in records)
        assert any(not t.complete for t, _ in records)
        assert any(a.name == "transferIP" for t, _ in records for a in t.actions)
        for t, max_steps in records:
            state = assert_evaluates_to_its_record(ruleset, corpus_scenario, t)
            # recorded when terminal or complete; terminal at the step cap, or
            # when expanded without an applicable action
            at_cap = state.step_count >= max_steps
            assert t.terminal or t.complete
            assert t.terminal or not at_cap
            if t.terminal and not at_cap:
                assert not applicable_actions(
                    state, search_world(ruleset.action_rules, corpus_scenario)[0]
                )

    def test_a_shorter_path_moves_the_sale_to_its_own_step(self, monkeypatch):
        """A node reached again by a shorter path, before it was expanded,
        is evaluated with that path's sale, which sits at another step; the
        search below records such a node."""
        result = parse_ruleset(TOY_RULESET + SEAT_TRANSFER_RULES)
        assert result.ok, [str(d) for d in result.diagnostics]
        ruleset, scenario_doc = result.document, parse_scenario(TOY_SCENARIO).document
        transfers: dict = {}  # state groups -> sale of each evaluation, in order

        def spy(state, memo):
            transfers.setdefault(state.groups, []).append(
                (state.step_count, state.transfer)
            )
            return evaluate_state(state, memo)

        monkeypatch.setattr(explorer_module, "evaluate_state", spy)
        params = SearchParams(seed=2, iterations=10, expansions=30, max_steps=6)
        tset = explore(ruleset, scenario_doc, params)
        moved = 0
        for t in tset.trajectories:
            assert_evaluates_to_its_record(ruleset, scenario_doc, t)
            *searched, recorded = transfers[t.final_state.groups]
            sale = path_transfer(ruleset, t.actions)
            # the record and the node's last evaluation in the search both
            # read the sale of the path the node ended on
            assert recorded == searched[-1] == (t.length, sale)
            moved += sale is not None and any(
                step > t.length and earlier is not None and earlier.step != sale.step
                for step, earlier in searched
            )
        assert moved


# --------------------------------------------------------------- invariants


class TestTrajectoryInvariants:
    def test_utility_identity_and_positive_cost(self, desk_run):
        assert desk_run.trajectories
        for t in desk_run.trajectories:
            assert t.phi > 0.0
            assert t.phi == desk_run.cost_coefficient * t.length
            assert t.utility == trajectory_utility(
                t.p, t.length, desk_run.cost_coefficient
            )

    def test_each_final_state_is_recorded_once(self, desk_run):
        """States are deduplicated, so no plan competes with a longer one."""
        keys = [t.final_state.key() for t in desk_run.trajectories]
        assert len(keys) == len(set(keys))

    def test_every_record_is_terminal_or_complete(self, desk_run):
        for t in desk_run.trajectories:
            assert t.terminal or t.complete

    def test_ids_are_sequential(self, desk_run):
        assert [t.id for t in desk_run.trajectories] == list(
            range(len(desk_run.trajectories))
        )

    def test_complete_means_all_markets_covered(self, desk_run, corpus_scenario):
        scenario = corpus_scenario.scenario
        for t in desk_run.trajectories[:50]:
            assert t.complete == settle(t.final_state, scenario, Ledgers()).complete


class TestDeadEnds:
    def test_actionless_ruleset_yields_empty_set_with_warning(
        self, toy_scenario
    ):
        result = parse_ruleset(
            "rate usa 0.35.\nrate ireland 0.125.\n"
        )
        assert result.ok
        params = SearchParams(seed=0, iterations=3, expansions=10)
        tset = explore(result.document, toy_scenario, params)
        assert tset.trajectories == ()
        assert any("no applicable actions" in w for w in tset.warnings)


class TestMissingRates:
    @pytest.mark.parametrize(
        "removed,message",
        [
            (("bermuda",), "no statutory rate for scenario country 'bermuda'"),
            (
                ("netherlands", "bermuda"),
                "no statutory rate for scenario country 'netherlands', 'bermuda'",
            ),
        ],
    )
    def test_explore_rejects_before_the_search(
        self, corpus_ruleset_text, corpus_scenario, monkeypatch, removed, message
    ):
        """A library caller gets one ExplorerError naming every country
        without a rate, and no state is evaluated."""
        text = corpus_ruleset_text
        for country in removed:
            (line,) = [
                row for row in text.splitlines(True) if row.startswith(f"rate {country} ")
            ]
            text = text.replace(line, "")
        result = parse_ruleset(text)
        assert result.ok
        calls = []
        monkeypatch.setattr(
            explorer_module, "evaluate_state", lambda *args: calls.append(args)
        )
        params = SearchParams(seed=7, iterations=3, expansions=5)
        with pytest.raises(ExplorerError) as raised:
            explore(result.document, corpus_scenario, params)
        assert str(raised.value) == message
        assert calls == []


class TestDuplicateRules:
    def test_explore_rejects_a_repeated_rule_key_before_the_search(
        self, toy_ruleset, toy_scenario, monkeypatch
    ):
        """A library-built ruleset with two rules of one (name, legal_ref),
        which the parser would reject, raises before any state is grounded
        or evaluated."""
        twin = parse_ruleset(
            'action addChild(Owner, fresh Sub, Country) ref "twin" {\n'
            "  pre: exists(Owner);\n"
            "  eff: exists(Sub), based(Sub, Country);\n"
            "}\n"
        ).document.action_rules[0]
        twin = dataclasses.replace(twin, legal_ref="toy-incorp")
        ruleset = dataclasses.replace(
            toy_ruleset, action_rules=toy_ruleset.action_rules + (twin,)
        )
        calls = []
        for name in ("applicable_actions", "evaluate_state"):
            monkeypatch.setattr(
                explorer_module, name, lambda *args, **kwargs: calls.append(args)
            )
        params = SearchParams(seed=0, iterations=3, expansions=10)
        message = re.escape("duplicate rule ('addChild', 'toy-incorp')")
        with pytest.raises(KernelError, match=message):
            explore(ruleset, toy_scenario, params)
        assert calls == []


# Two routes of different lengths to one fact set: "license-seat" licenses
# the IP and moves the renter's seat in one step, "license" then "seat" take
# two.
SEAT_RULES = """
action rentIP(Licensor, Renter, Ip) ref "license-seat" {
  pre: ownsIP(Licensor, Ip), exists(Renter), Licensor != Renter,
       not rentsIP(_, Renter, Ip), not managed(Renter, _);
  eff: rentsIP(Licensor, Renter, Ip), managed(Renter, germany);
}

action rentIP(Licensor, Renter, Ip) ref "seat" {
  pre: rentsIP(Licensor, Renter, Ip), not managed(Renter, _);
  eff: managed(Renter, germany);
}
"""


class TestShorterPath:
    """A known, unexpanded node reached again by a shorter path takes that
    path: its state, its evaluation, and, when the step cap had closed it, a
    place on the frontier.  Both searches below meet some fact set by the
    longer route first; the second meets one at the step cap."""

    @pytest.mark.parametrize(
        "seed,iterations,expansions,max_steps", [(3, 20, 30, 12), (0, 10, 5, 4)]
    )
    def test_trajectories_match_their_recorded_path(
        self, corpus_ruleset_text, corpus_scenario, seed, iterations, expansions,
        max_steps,
    ):
        result = parse_ruleset(corpus_ruleset_text + SEAT_RULES)
        assert result.ok, [str(d) for d in result.diagnostics]
        ruleset = result.document
        params = SearchParams(
            seed=seed, iterations=iterations, expansions=expansions,
            max_steps=max_steps,
        )
        tset = explore(ruleset, corpus_scenario, params)
        assert tset.trajectories
        for t in tset.trajectories:
            state = assert_evaluates_to_its_record(ruleset, corpus_scenario, t)
            # facts, step_count and transfer
            assert t.final_state == state
            if t.terminal and t.length < max_steps:
                assert not applicable_actions(
                    state, search_world(ruleset.action_rules, corpus_scenario)[0]
                )


# ---------------------------------------------------------- reproducibility


class TestReproducibility:
    def run_bytes(self, ruleset, scenario, params, tmp_path, name):
        tset = explore(ruleset, scenario, params)
        path = tmp_path / name
        write_jsonl(tset, path)
        return path.read_bytes(), tset

    def test_rerun_is_byte_identical(self, toy_ruleset, toy_scenario, tmp_path):
        params = SearchParams(seed=11, iterations=8, expansions=40, max_steps=6)
        a, _ = self.run_bytes(toy_ruleset, toy_scenario, params, tmp_path, "a.jsonl")
        b, _ = self.run_bytes(toy_ruleset, toy_scenario, params, tmp_path, "b.jsonl")
        assert a == b

    def test_bench_shape_bytes_are_pinned(
        self, corpus_ruleset, corpus_scenario, tmp_path
    ):
        # the corpus search at seed 7, 50 x 60, as the pipeline benchmark's
        # ``reference`` workload runs it
        params = SearchParams(seed=7, iterations=50, expansions=60)
        data, _ = self.run_bytes(
            corpus_ruleset, corpus_scenario, params, tmp_path, "bench.jsonl"
        )
        assert hashlib.sha256(data).hexdigest() == (
            "8ee107848c1002341472ae68acce842312184cfbfa86e2349c065b166df84417"
        )

    def test_jsonl_round_trip(self, toy_ruleset, toy_scenario, desk_run, tmp_path):
        params = SearchParams(seed=11, iterations=8, expansions=40, max_steps=6)
        toy_run = explore(toy_ruleset, toy_scenario, params)
        # the toy ruleset has no reductions; the corpus run's records carry
        # applied deductibles and exemptions
        applied = {
            kind for t in desk_run.trajectories for _, kind in t.applied_reduction_refs()
        }
        assert applied == {DEDUCTIBLE, EXEMPTION}
        for tset in (toy_run, desk_run):
            self.assert_round_trip(tset, tmp_path / "rt.jsonl")

    @staticmethod
    def assert_round_trip(tset, path):
        write_jsonl(tset, path)
        back = read_jsonl(path)
        assert back.params == tset.params
        assert back.ruleset_sha256 == tset.ruleset_sha256
        assert back.scenario_sha256 == tset.scenario_sha256
        assert back.warnings == tset.warnings
        assert len(back.trajectories) == len(tset.trajectories)
        for orig, copy in zip(tset.trajectories, back.trajectories):
            assert copy.id == orig.id
            assert copy.actions == orig.actions
            assert copy.final_state.key() == orig.final_state.key()
            assert copy.transactions == orig.transactions
            assert copy.assessments == orig.assessments
            assert (copy.p, copy.phi, copy.utility) == (
                orig.p, orig.phi, orig.utility,
            )
            assert (copy.complete, copy.terminal) == (
                orig.complete, orig.terminal,
            )

    def test_round_trip_write_is_stable(
        self, toy_ruleset, toy_scenario, tmp_path
    ):
        params = SearchParams(seed=2, iterations=6, expansions=30, max_steps=5)
        tset = explore(toy_ruleset, toy_scenario, params)
        p1 = tmp_path / "w1.jsonl"
        p2 = tmp_path / "w2.jsonl"
        write_jsonl(tset, p1)
        write_jsonl(read_jsonl(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": 99, "kind": "other"}\n')
        with pytest.raises(RunFileError):
            read_jsonl(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(RunFileError):
            read_jsonl(empty)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda row: row["final_state"].append(["exists", "Zed"]),
                "final state of trajectory 0: fact argument must be a ground constant: 'Zed'",
            ),
            (
                lambda row: row["final_state"].append(["exists", 1]),
                "final state of trajectory 0: fact argument must be a ground constant: 1",
            ),
            (
                lambda row: row["final_state"].append(["exists", True]),
                "final state of trajectory 0: fact argument must be a ground constant: True",
            ),
            (
                lambda row: row["actions"][0]["args"].update(Parent="_"),
                "trajectory 0: ValueError: addChild binds Parent to '_', not a constant",
            ),
            (
                lambda row: row["actions"][0]["args"].update(Parent=1),
                "trajectory 0: ValueError: addChild binds Parent to 1, not a constant",
            ),
        ],
        ids=[
            "variable-fact", "number-fact", "boolean-fact",
            "wildcard-binding", "number-binding",
        ],
    )
    def test_read_rejects_non_constant_arguments(
        self, toy_ruleset, toy_scenario, tmp_path, edit, message
    ):
        params = SearchParams(seed=11, iterations=8, expansions=40, max_steps=6)
        path = tmp_path / "t.jsonl"
        write_jsonl(explore(toy_ruleset, toy_scenario, params), path)
        header, first, *rest = path.read_text().splitlines(True)
        row = json.loads(first)
        assert row["actions"][0]["name"] == "addChild"
        edit(row)
        path.write_text("".join([header, json.dumps(row) + "\n", *rest]))
        with pytest.raises(RunFileError) as info:
            read_jsonl(path)
        assert message in str(info.value)

    def test_read_skips_blank_lines(self, toy_ruleset, toy_scenario, tmp_path):
        params = SearchParams(seed=11, iterations=8, expansions=40, max_steps=6)
        path = tmp_path / "t.jsonl"
        write_jsonl(explore(toy_ruleset, toy_scenario, params), path)
        lines = path.read_text().splitlines(True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n \n" + "\n".join(lines) + "\n\n")
        assert read_jsonl(spaced) == read_jsonl(path)


# ----------------------------------------------------------- hash-consing


def assert_one_object_per_value(values):
    """Equal members of ``values`` are one object, and some values repeat."""
    assert len({id(v) for v in values}) == len(set(values)) < len(values)


@pytest.fixture(scope="module")
def bench_run(corpus_ruleset, corpus_scenario):
    """The corpus search at seed 7, 50 x 60, the benchmark's shape."""
    params = SearchParams(seed=7, iterations=50, expansions=60)
    return explore(corpus_ruleset, corpus_scenario, params)


def shared_parts(tset):
    """The final-state groups, the rows in them and the actions of every
    trajectory of ``tset``, with repeats."""
    groups = [g for t in tset.trajectories for g in t.final_state.groups]
    rows = [row for g in groups for row in g]
    actions = [a for t in tset.trajectories for a in t.actions]
    return groups, rows, actions


class TestSharing:
    """One search holds one object per distinct row and group, and one read
    of a trajectory file one per distinct action, row and group."""

    def test_one_object_per_value_in_a_search(self, bench_run):
        groups, rows, _ = shared_parts(bench_run)
        for values in (groups, rows):
            assert_one_object_per_value(values)

    def test_two_searches_share_nothing(self, bench_run, desk_run):
        first, second = shared_parts(bench_run), shared_parts(desk_run)
        for values, others in zip(first[::2], second[::2]):  # groups, actions
            objects = {v: v for v in values if v}  # () is one object in CPython
            equal = [v for v in others if v in objects]
            assert equal
            assert not any(objects[v] is v for v in equal)

    def test_one_object_per_value_in_a_read(self, bench_run, tmp_path):
        path = tmp_path / "bench.jsonl"
        write_jsonl(bench_run, path)
        for values in shared_parts(read_jsonl(path)):
            assert_one_object_per_value(values)

    def test_one_sale_object_per_value_in_a_search(
        self, corpus_ruleset, corpus_scenario, monkeypatch
    ):
        """The sales the states of a bench-shape search carry, each a
        Transfer, never another tuple of the search's table."""
        sales = []

        def spy(state, memo):
            if state.transfer is not None:
                sales.append(state.transfer)
            return evaluate_state(state, memo)

        monkeypatch.setattr(explorer_module, "evaluate_state", spy)
        params = SearchParams(seed=7, iterations=50, expansions=60)
        explore(corpus_ruleset, corpus_scenario, params)
        assert all(type(sale) is Transfer for sale in sales)
        assert_one_object_per_value(sales)


class TestNodeTable:
    """The search keeps its nodes as rows of columns, not as States: a
    node's State is built when the node is expanded or recorded, and the
    one apply_action returns is evaluated and dropped."""

    def test_few_states_live_when_the_first_record_is_built(
        self, corpus_ruleset, corpus_scenario, monkeypatch
    ):
        def live_states():
            return sum(type(o) is State for o in gc.get_objects())

        nodes = set()  # the groups of every evaluated state: one per node
        live = []  # live States when the first record is built

        def spy(state, memo):
            nodes.add(state.groups)
            return evaluate_state(state, memo)

        def record(**fields):
            if not live:
                live.append(live_states())
            return Trajectory(**fields)

        monkeypatch.setattr(explorer_module, "evaluate_state", spy)
        before = live_states()
        with monkeypatch.context() as patch:
            patch.setattr(explorer_module, "Trajectory", record)
            params = SearchParams(seed=7, iterations=20, expansions=200)
            tset = explore(corpus_ruleset, corpus_scenario, params)
        assert tset.trajectories and len(nodes) > 1000
        assert live[0] - before < len(nodes) // 100


# ------------------------------------------------------- evaluation memo


def evaluations_against_the_oracle(ruleset, scenario_doc, monkeypatch):
    """Every evaluation of a desk-shape search at seed 7 of ``ruleset``,
    each compared with its evaluation with nothing memoized.  Returns the
    trajectory set, the search's one memo and the evaluations as (state,
    result)."""
    calls = []
    memos = set()

    def spy(state, memo):
        result = evaluate_state(state, memo)
        calls.append((state, result))
        memos.add(memo)
        return result

    monkeypatch.setattr(explorer_module, "evaluate_state", spy)
    params = SearchParams(seed=7, iterations=20, expansions=200)
    tset = explore(ruleset, scenario_doc, params)
    (memo,) = memos
    scenario = scenario_doc.scenario
    reductions = ruleset.reduction_rules
    rates = ruleset.rates()
    for state, (ledger, assessments, p) in calls:
        expected = evaluate_from_scratch(state, scenario, reductions, rates)
        assert (ledger.transactions, assessments, p, ledger.complete) == expected
    return tset, memo, calls


class TestEvaluationMemo:
    def test_every_evaluation_equals_a_fresh_memo(
        self, corpus_ruleset, corpus_scenario, monkeypatch
    ):
        """Each state of a desk-shape search, recorded or not, evaluates as
        it would with nothing memoized."""
        tset, memo, calls = evaluations_against_the_oracle(
            corpus_ruleset, corpus_scenario, monkeypatch
        )
        recorded = {t.final_state.key() for t in tset.trajectories}
        evaluated = {state.key() for state, _ in calls}
        assert recorded and evaluated - recorded
        # the memo was used: fewer ledgers and returns than evaluations
        assert len(memo.ledgers) < len(calls)
        assert len(memo.returns) < sum(len(r[1]) for _, r in calls)
        # a ledger's transactions are one object per value across ledgers
        shared = [t for ledger in memo.ledgers.values() for t in ledger.transactions]
        assert len({id(t) for t in shared}) == len(set(shared)) < len(shared)

    @pytest.mark.parametrize("ruleset_name", ["statutory", "renamed"])
    def test_every_evaluation_equals_the_oracle(
        self, corpus_ruleset, renamed_corpus, corpus_scenario, monkeypatch,
        ruleset_name,
    ):
        ruleset = {
            "statutory": dataclasses.replace(corpus_ruleset, reduction_rules=()),
            "renamed": renamed_corpus,
        }[ruleset_name]
        evaluations_against_the_oracle(ruleset, corpus_scenario, monkeypatch)


class TestRenaming:
    """Metamorphic relation (Chen, Cheung and Yiu 1998): renaming the
    transfer rule's parameters without changing their sorted order changes
    nothing but the names."""

    def test_renamed_transfer_parameters_give_the_same_trajectories(
        self, desk_run, renamed_corpus, corpus_scenario, tmp_path
    ):
        renamed = explore(renamed_corpus, corpus_scenario, desk_run.params)
        write_jsonl(desk_run, tmp_path / "corpus.jsonl")
        write_jsonl(renamed, tmp_path / "renamed.jsonl")
        names = {"Giver": "From", "Taker": "To"}
        lines = []
        for name in ("corpus.jsonl", "renamed.jsonl"):
            header, *rows = [
                json.loads(line)
                for line in (tmp_path / name).read_text(encoding="utf-8").splitlines()
            ]
            del header["ruleset_sha256"]
            for row in rows:
                for action in row["actions"]:
                    action["args"] = {names.get(k, k): v for k, v in action["args"].items()}
            lines.append([header, *rows])
        corpus, renamed_lines = lines
        # the corpus run pays for a sale (a transaction's third field is its kind)
        assert any(tx[2] == "transfer" for row in corpus[1:] for tx in row["transactions"])
        assert renamed_lines == corpus


# ------------------------------------------------------ garbage collector


@pytest.fixture
def collector_off():
    """The cyclic collector disabled, after one full collection, for the
    test; enabled again afterwards."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class TestCollectorPause:
    def test_warm_search_leaves_no_cyclic_garbage(
        self, corpus_ruleset, corpus_scenario, collector_off
    ):
        params = SearchParams(seed=7, iterations=6, expansions=60)
        explore(corpus_ruleset, corpus_scenario, params)  # imports, first calls
        gc.collect()
        explore(corpus_ruleset, corpus_scenario, params)
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_setting(
        self, toy_ruleset, toy_scenario, monkeypatch, enabled
    ):
        during = []

        def spy(*args):
            during.append(gc.isenabled())
            return evaluate_state(*args)

        monkeypatch.setattr(explorer_module, "evaluate_state", spy)
        params = SearchParams(seed=1, iterations=3, expansions=10, max_steps=4)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            explore(toy_ruleset, toy_scenario, params)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during and not any(during)

    def test_restores_the_collector_when_the_search_raises(
        self, toy_ruleset, toy_scenario, monkeypatch
    ):
        def failing(*args):
            assert not gc.isenabled()
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(explorer_module, "evaluate_state", failing)
        params = SearchParams(seed=1, iterations=3, expansions=10, max_steps=4)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="evaluation failed"):
            explore(toy_ruleset, toy_scenario, params)
        assert gc.isenabled()
