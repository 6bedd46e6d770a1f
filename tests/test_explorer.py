"""Search tests: selection mathematics, exhaustive-oracle equality,
reproducibility of the serialized trajectory stream.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import json
import math

import numpy as np
import pytest

import loophound.explorer as explorer_module
from loophound.dsl import parse_ruleset
from loophound.economy import is_multinationally_complete, settle
from loophound.explorer import (
    ExplorerError,
    SearchParams,
    depth_weight,
    explore,
    read_jsonl,
    selection_distribution,
    trajectory_utility,
    write_jsonl,
)
from loophound.kernel import applicable_actions, apply_action, initial_state
from loophound.taxation import DEDUCTIBLE, EXEMPTION, EvaluationMemo, evaluate_state

from conftest import scenario_domains


# -------------------------------------------------------------- parameters


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert (p.beta, p.tau0, p.max_steps) == (0.01, 5.0, 12)
        assert (p.iterations, p.expansions) == (50, 1000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cost_coefficient": 0.0},
            {"cost_coefficient": -1.0},
            {"tau0": 0.0},
            {"beta": -0.5},
            {"iterations": 0},
            {"expansions": 0},
            {"max_steps": 0},
            {"beta": math.inf},
            {"beta": math.nan},
            {"tau0": math.nan},
            {"tau0": math.inf},
            {"cost_coefficient": math.nan},
            {"cost_coefficient": math.inf},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ExplorerError):
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


def bfs_oracle(ruleset, scenario_doc, max_steps):
    """Exhaustive breadth-first enumeration, dedup on fact sets.

    Returns (terminal_keys, complete_keys) where terminal covers both
    dead ends and the depth cutoff; the root is excluded to mirror the
    searcher's no-empty-trajectory convention.
    """
    scenario = scenario_doc.scenario
    domains = scenario_domains(scenario)
    rules = ruleset.action_rules
    pool = scenario.company_pool
    s0 = initial_state(scenario_doc.state.facts, scenario_doc.state.companies)

    seen = {s0.key()}
    queue = collections.deque([s0])
    terminal, complete = set(), set()
    while queue:
        state = queue.popleft()
        is_root = state.step_count == 0
        if state.step_count >= max_steps:
            terminal.add(state.key())
            if is_multinationally_complete(settle(state, scenario), scenario):
                complete.add(state.key())
            continue
        acts = applicable_actions(state, rules, domains, pool, max_steps=max_steps)
        if not acts and not is_root:
            terminal.add(state.key())
        if not is_root and is_multinationally_complete(
            settle(state, scenario), scenario
        ):
            complete.add(state.key())
        for act in acts:
            child = apply_action(state, act, rules, pool)
            key = child.key()
            if key in seen:
                continue
            seen.add(key)
            queue.append(child)
    return terminal, complete


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
        got_terminal = {
            t.final_state.key() for t in tset.trajectories if t.terminal
        }
        got_complete = {
            t.final_state.key() for t in tset.trajectories if t.complete
        }
        want_terminal, want_complete = bfs_oracle(
            toy_ruleset, toy_scenario, max_steps
        )
        assert got_terminal == want_terminal
        assert got_complete == want_complete

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


def replay(ruleset, scenario_doc, actions):
    """The state an action path reaches from the scenario's initial state."""
    scenario = scenario_doc.scenario
    domains = scenario_domains(scenario)
    state = initial_state(scenario_doc.state.facts, scenario_doc.state.companies)
    for act in actions:
        state = apply_action(
            state, act, ruleset.action_rules, scenario.company_pool
        )
    return state


class TestReplayOracle:
    """Each recorded trajectory of a tiny search, rebuilt from the root with
    fresh tables and every check on every step, and evaluated with nothing
    memoized, gives its record."""

    # (iterations, expansions, max_steps): 4 x 20 records step-capped paths
    # only; 14 x 40 at 10 steps also reaches complete ones on both rulesets
    SHAPES = ((4, 20, 4), (14, 40, 10))

    @pytest.mark.parametrize("reductions", [True, False], ids=["corpus", "statutory"])
    def test_each_trajectory_rebuilds_and_evaluates_to_its_record(
        self, corpus_ruleset, corpus_scenario, reductions
    ):
        ruleset = (
            corpus_ruleset
            if reductions
            else dataclasses.replace(corpus_ruleset, reduction_rules=())
        )
        scenario = corpus_scenario.scenario
        domains = scenario_domains(scenario)
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
        for t, max_steps in records:
            state = replay(ruleset, corpus_scenario, t.actions)
            final = t.final_state
            assert state.groups == final.groups
            assert state.step_count == final.step_count == t.length
            assert state.transfer_used == final.transfer_used
            transactions, assessments, p = evaluate_state(
                state,
                scenario,
                ruleset.reduction_rules,
                ruleset.rates(),
                EvaluationMemo(),
                t.actions,
            )
            assert transactions == t.transactions
            assert tuple(assessments) == t.assessments
            assert p == t.p
            assert is_multinationally_complete(transactions, scenario) == t.complete
            # recorded when terminal or complete; terminal at the step cap, or
            # when expanded without an applicable action
            at_cap = state.step_count >= max_steps
            assert t.terminal or t.complete
            assert t.terminal or not at_cap
            if t.terminal and not at_cap:
                assert not applicable_actions(
                    state, ruleset.action_rules, domains, scenario.company_pool
                )


# --------------------------------------------------------------- invariants


class TestTrajectoryInvariants:
    def test_utility_identity_and_positive_cost(self, desk_run):
        assert desk_run.trajectories
        for t in desk_run.trajectories:
            assert t.phi > 0.0
            assert t.phi == desk_run.params.cost_coefficient * t.length
            assert t.utility == trajectory_utility(
                t.p, t.length, desk_run.params.cost_coefficient
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
            assert t.complete == is_multinationally_complete(
                settle(t.final_state, scenario), scenario
            )


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
        scenario = corpus_scenario.scenario
        params = SearchParams(
            seed=seed, iterations=iterations, expansions=expansions,
            max_steps=max_steps,
        )
        tset = explore(ruleset, corpus_scenario, params)
        assert tset.trajectories
        for t in tset.trajectories:
            state = replay(ruleset, corpus_scenario, t.actions)
            # facts, step_count and transfer_used
            assert t.final_state == state
            transactions, assessments, p = evaluate_state(
                state, scenario, ruleset.reduction_rules, ruleset.rates(),
                EvaluationMemo(), t.actions,
            )
            assert t.transactions == tuple(transactions)
            assert t.assessments == tuple(assessments)
            assert t.p == p
            if t.terminal and t.length < max_steps:
                assert not applicable_actions(
                    state, ruleset.action_rules, scenario_domains(scenario),
                    scenario.company_pool, max_steps=max_steps,
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
        with pytest.raises(ExplorerError):
            read_jsonl(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ExplorerError):
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
        with pytest.raises(ExplorerError) as info:
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
    """One search, and one read of a trajectory file, hold one object per
    distinct action, row and group."""

    def test_one_object_per_value_in_a_search(self, bench_run):
        for values in shared_parts(bench_run):
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


# ------------------------------------------------------- evaluation memo


class TestEvaluationMemo:
    def test_every_evaluation_equals_a_fresh_memo(
        self, corpus_ruleset, corpus_scenario, monkeypatch
    ):
        """Each state of a desk-shape search, recorded or not, evaluates as
        it would with nothing memoized."""
        calls = []
        memos = set()

        def spy(state, scenario, reductions, rates, memo, actions=()):
            result = evaluate_state(state, scenario, reductions, rates, memo, actions)
            calls.append((state, actions, result))
            memos.add(memo)
            return result

        monkeypatch.setattr(explorer_module, "evaluate_state", spy)
        params = SearchParams(seed=7, iterations=20, expansions=200)
        tset = explore(corpus_ruleset, corpus_scenario, params)
        (memo,) = memos
        scenario = corpus_scenario.scenario
        reductions = corpus_ruleset.reduction_rules
        rates = corpus_ruleset.rates()
        for state, actions, result in calls:
            fresh = evaluate_state(
                state, scenario, reductions, rates, EvaluationMemo(), actions
            )
            assert result == fresh, [str(a) for a in actions]
        recorded = {t.final_state.key() for t in tset.trajectories}
        evaluated = {state.key() for state, _, _ in calls}
        assert recorded and evaluated - recorded
        # the memo was used: fewer ledgers and returns than evaluations
        assert len(memo.ledgers) < len(calls)
        assert len(memo.returns) < sum(len(r[1]) for _, _, r in calls)


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
