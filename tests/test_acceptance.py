"""Acceptance gate: the nine headline requirements, one PASS/FAIL line each.

Every check prints a single line straight to the terminal (bypassing pytest
capture) before asserting, so a full run always shows the verdict per
criterion.  Statistical requirements run against the bundled corpus at the
reference scale; exactness requirements run against independent oracles
written into this file or ``tests/oracles.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from loophound import corpus_path
from loophound.analytics import detect_segments, frequency_table, utility_profile
from loophound.dsl import (
    parse_ruleset,
    parse_scenario,
    render_ruleset,
    render_scenario,
)
from loophound.economy import (
    ScenarioConfig,
    commercial_transactions,
    royalty_transactions,
)
from loophound.explorer import (
    depth_weight,
    explore,
    search_world,
    selection_distribution,
    trajectory_utility,
)
from loophound.induction import (
    Clause,
    ClauseLiteral,
    Hypothesis,
    InductionConfig,
    Metrics,
    build_background,
    evaluate,
    induce,
    label,
    scheme_graph,
)
from loophound.kernel import (
    applicable_actions,
    apply_action,
    initial_state,
    make_fact,
)
from loophound.policy import WelfareConfig, delta_restriction
from loophound.runfiles import SearchParams
from loophound.taxation import EvaluationMemo, evaluate_state
from conftest import mk_tset, role_trajectory
from oracles import bfs_oracle, path_transfer, recorded_sets


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------- builders
# Synthetic trajectory pools with controllable utility, tax and structure.

_MARKER = ("managed", ("i0", "bermuda"))


# ------------------------------------------------- shared corpus-run products


@pytest.fixture(scope="session")
def full_products(full_run):
    """Profile, segmentation and induction artifacts of the reference run."""
    tset, _ = full_run
    profile = utility_profile(tset)
    segments = detect_segments(profile, None, 100)
    products = {
        "tset": tset,
        "profile": profile,
        "segments": segments,
        "u_plus": None,
        "examples": None,
        "background": None,
        "hypothesis": None,
        "overall": None,
    }
    if len(segments) >= 2:
        u_plus = profile.values[segments[0].stop]
        config = InductionConfig(u_plus=u_plus)
        examples = label(tset, u_plus)
        background = build_background(tset, config)
        hypothesis = induce(examples, background, config)
        products.update(
            u_plus=u_plus,
            examples=examples,
            background=background,
            hypothesis=hypothesis,
            overall=evaluate(hypothesis, examples, background),
        )
    return products


# -------------------------------------------------------------- criterion 1


def test_criterion_1_pipeline_yield(full_run, full_products, capsys):
    _, elapsed = full_run
    profile = full_products["profile"]
    segments = full_products["segments"]
    complete = len(profile.values)
    non_constant = complete > 0 and max(profile.values) > min(profile.values)
    ok = (
        complete >= 50
        and non_constant
        and len(segments) >= 2
        and elapsed < 300.0
    )
    announce(
        capsys,
        1,
        ok,
        f"{complete} complete trajectories, non-constant profile, "
        f"{len(segments)} segments, search took {elapsed:.1f}s (< 300s)",
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_2_conduit_reference_separation(full_products, capsys):
    table = frequency_table(
        full_products["tset"], full_products["profile"], full_products["segments"]
    )
    dcita = table.rows.get(("DCITA1969", "deductible"))
    a8c = table.rows.get(("A8cNLctl1969", "exemption"))
    ok = (
        dcita is not None
        and a8c is not None
        and dcita[0] > dcita[-1]
        and a8c[0] > a8c[-1]
    )
    detail = "conduit reference rows missing from the frequency table"
    if dcita is not None and a8c is not None:
        detail = (
            f"top vs bottom segment frequency: DCITA1969 {dcita[0]:.3f} > "
            f"{dcita[-1]:.3f}, A8cNLctl1969 {a8c[0]:.3f} > {a8c[-1]:.3f}"
        )
    announce(capsys, 2, ok, detail)


# -------------------------------------------------------------- criterion 3


def test_criterion_3_induced_scheme_quality(full_products, capsys):
    overall = full_products["overall"]
    hypothesis = full_products["hypothesis"]
    if overall is None:
        announce(capsys, 3, False, "no hypothesis: fewer than two segments")
        return
    assert InductionConfig(u_plus=full_products["u_plus"]).max_literals == 7
    graph = scheme_graph(hypothesis, top_k=10)
    has_managed = any(
        e.source == "A" and e.label == "managed" and e.target == "bermuda"
        for e in graph.edges
    )
    has_rents = any(
        e.source == "A" and e.label == "rents" and e.target == "B"
        for e in graph.edges
    )
    ok = (
        overall.accuracy is not None
        and overall.accuracy >= 0.95
        and overall.f1 is not None
        and overall.f1 >= 0.70
        and has_managed
        and has_rents
    )
    announce(
        capsys,
        3,
        ok,
        f"accuracy {overall.accuracy:.3f} (>= 0.95), f1 {overall.f1:.3f} "
        f"(>= 0.70), graph has A-managed->bermuda: {has_managed}, "
        f"A-rents->B: {has_rents}",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_short_plans_attain_max_utility(
    toy_ruleset, toy_scenario, capsys
):
    """Exhaustive path enumeration to depth 6 in the two-market toy world:
    within every final-state group, a minimal-length path must attain the
    group's maximal utility (profit depends only on the final state)."""
    scenario = toy_scenario.scenario
    rules, s0 = search_world(toy_ruleset.action_rules, toy_scenario)
    rates = toy_ruleset.rates()

    # settle() depends on the path only through the transfer binding, so the
    # profit cache may key on (facts, transfer) without assuming the theorem
    profit_cache: dict = {}
    groups: dict = {}
    paths = 0
    stack = [(s0, ())]
    while stack:
        state, actions = stack.pop()
        if actions:
            paths += 1
            transfer = next(
                (a for a in actions if a.name == "transferIP"), None
            )
            cache_key = (
                state.key(),
                None if transfer is None else tuple(sorted(transfer.binding)),
            )
            assert state.transfer == path_transfer(toy_ruleset, actions)
            if cache_key not in profit_cache:
                _, _, p = evaluate_state(
                    state, EvaluationMemo(scenario, toy_ruleset.reduction_rules, rates)
                )
                profit_cache[cache_key] = p
            utility = trajectory_utility(profit_cache[cache_key], len(actions), 1.0)
            groups.setdefault(state.key(), []).append((len(actions), utility))
        if state.step_count >= 6:
            continue
        for action in applicable_actions(state, rules):
            stack.append((apply_action(state, action, rules), actions + (action,)))

    violations = 0
    for members in groups.values():
        shortest = min(length for length, _ in members)
        best = max(utility for _, utility in members)
        if not any(l == shortest and u == best for l, u in members):
            violations += 1
    ok = violations == 0 and paths >= 100 and len(groups) >= 50
    announce(
        capsys,
        4,
        ok,
        f"{paths} paths into {len(groups)} final states, depth <= 6, "
        f"{violations} optimality violations",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_restriction_gain(full_products, capsys):
    config = WelfareConfig("mean_tax_collected")

    # separable synthetic pool: low-tax plans carry a marker, a perfect
    # classifier exists, and removing the covered plans raises mean tax
    tset = mk_tset(
        [
            role_trajectory(0, 100.0, 1.0, [_MARKER]),
            role_trajectory(1, 100.0, 1.0, [_MARKER]),
            role_trajectory(2, 10.0, 50.0),
            role_trajectory(3, 10.0, 50.0),
        ]
    )
    induction_config = InductionConfig(u_plus=50.0)
    examples = label(tset, 50.0)
    background = build_background(tset, induction_config)
    hypothesis = induce(examples, background, induction_config)
    overall = evaluate(hypothesis, examples, background)
    report = delta_restriction(tset, hypothesis, examples, background, config)
    synthetic_ok = (
        overall.sensitivity == 1.0
        and overall.specificity == 1.0
        and report.delta_e is not None
        and report.delta_e > 0
        and report.delta_h is not None
        and report.delta_h > 0
        and report.delta_h == report.delta_h_pos - report.delta_h_neg
    )

    corpus_ok = True
    corpus_note = "corpus identity skipped (no hypothesis)"
    if full_products["hypothesis"] is not None:
        corpus_report = delta_restriction(
            full_products["tset"],
            full_products["hypothesis"],
            full_products["examples"],
            full_products["background"],
            config,
        )
        defined = (
            corpus_report.delta_h is not None
            and corpus_report.delta_h_pos is not None
            and corpus_report.delta_h_neg is not None
        )
        corpus_ok = defined and (
            corpus_report.delta_h
            == corpus_report.delta_h_pos - corpus_report.delta_h_neg
        )
        corpus_note = (
            f"corpus Delta(H) = {corpus_report.delta_h} decomposes exactly"
            if corpus_ok
            else "corpus decomposition identity failed"
        )

    ok = synthetic_ok and corpus_ok
    announce(
        capsys,
        5,
        ok,
        "perfect classifier on separable data gives Delta(H) = "
        f"{report.delta_h} > 0 with exact decomposition; {corpus_note}",
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_6_search_matches_exhaustive(toy_ruleset, toy_scenario, capsys):
    # alpha_t: exact equality with an independent recomputation
    alpha_exact = all(
        depth_weight(t, beta) == 1.0 / (1.0 + beta * t)
        for t in (0, 1, 3, 7, 40, 500)
        for beta in (0.0, 0.01, 0.5, 2.0)
    )

    # selection distribution: mixture of depth and utility softmaxes
    rng = np.random.default_rng(61)
    worst_gap = 0.0
    for size in (1, 3, 17, 200):
        for t in (0, 12, 99):
            depths = rng.integers(0, 12, size=size).astype(float)
            utilities = rng.normal(600.0, 150.0, size=size)
            p_depth = np.exp(-depths / 5.0)
            p_depth = p_depth / p_depth.sum()
            q1, q3 = np.percentile(utilities, [25.0, 75.0])
            sigma = max(1.0, float(q3 - q1))
            p_utility = np.exp((utilities - utilities.max()) / sigma)
            p_utility = p_utility / p_utility.sum()
            alpha = 1.0 / (1.0 + 0.01 * t)
            expected = alpha * p_depth + (1.0 - alpha) * p_utility
            expected = expected / expected.sum()
            got = selection_distribution(depths, utilities, t, beta=0.01, tau0=5.0)
            worst_gap = max(worst_gap, float(np.max(np.abs(got - expected))))
    softmax_ok = worst_gap <= 1e-10

    # budget >= frontier degenerates the sampler into breadth-first search
    params = SearchParams(seed=13, iterations=25, expansions=100_000, max_steps=6)
    tset = explore(toy_ruleset, toy_scenario, params)
    want_terminal, want_complete = bfs_oracle(toy_ruleset, toy_scenario, 6)
    sets_ok = recorded_sets(tset) == (want_terminal, want_complete)

    ok = alpha_exact and softmax_ok and sets_ok
    announce(
        capsys,
        6,
        ok,
        f"terminal/complete sets match exhaustive BFS ({len(want_terminal)}/"
        f"{len(want_complete)} states), softmax gap {worst_gap:.2e} <= 1e-10, "
        f"alpha exact: {alpha_exact}",
    )


# -------------------------------------------------------------- criterion 7


def _fixed_point_cascade(state, scenario, commercial):
    """Iterate royalty payments to a fixed point, summing received payments
    in sorted edge order to mirror the engine's accumulation order."""
    edges = sorted(tuple(args) for args in state.rows("rentsIP"))
    revenue: dict = {}
    for t in commercial:
        revenue[t.receiver] = revenue.get(t.receiver, 0.0) + t.amount
    payment = {edge: 0.0 for edge in edges}
    for _ in range(len(edges) + 1):
        updated = {}
        for licensor, renter, ip in edges:
            received = 0.0
            for other in edges:
                if other[0] == renter:
                    received += payment[other]
            updated[(licensor, renter, ip)] = scenario.royalty_rate * (
                revenue.get(renter, 0.0) + received
            )
        if updated == payment:
            return payment
        payment = updated
    raise AssertionError("no fixed point: licensing graph has a cycle")


def test_criterion_7_royalty_cascade_oracle(capsys):
    scenario = ScenarioConfig(
        countries=("m1", "m2", "h1"),
        revenue_table={"m1": 100.0, "m2": 30.0},
        tax_havens=frozenset({"h1"}),
        company_pool=(),
        declared_companies=("a0", "a1", "a2", "a3", "a4"),
        declared_ips=("ip1",),
    )
    country_cycle = ("m1", "m2", "h1")
    cases = 0
    exact = True
    for n in range(1, 6):
        parent_choices = [[None, *range(i)] for i in range(n)]
        stack = [()]
        while stack:
            parents = stack.pop()
            if len(parents) < n:
                for choice in parent_choices[len(parents)]:
                    stack.append(parents + (choice,))
                continue
            facts = [make_fact("ownsIP", ("a0", "ip1"))]
            for i in range(n):
                facts.append(make_fact("based", (f"a{i}", country_cycle[i % 3])))
            for child, parent in enumerate(parents):
                if parent is not None:
                    facts.append(
                        make_fact("rentsIP", (f"a{parent}", f"a{child}", "ip1"))
                    )
            state = initial_state(facts, tuple(f"a{i}" for i in range(n)))
            commercial = commercial_transactions(state, scenario)
            royalties = royalty_transactions(state, scenario, commercial)
            by_pair = {(t.sender, t.receiver): t.amount for t in royalties}
            oracle = _fixed_point_cascade(state, scenario, commercial)
            cases += 1
            for (licensor, renter, _ip), amount in oracle.items():
                if by_pair.pop((renter, licensor), 0.0) != amount:
                    exact = False
            if by_pair:  # payments with no corresponding licensing edge
                exact = False

    # the worked 2-market chain: 30 -> 27 upstream, 0.9 * (100 + 27) = 114.3
    chain_scenario = ScenarioConfig(
        countries=("usa", "netherlands", "ireland"),
        revenue_table={"usa": 700.0, "netherlands": 100.0, "ireland": 30.0},
        tax_havens=frozenset(),
        company_pool=(),
        royalty_rate=0.9,
        declared_companies=("p", "c1", "c2"),
        declared_ips=("ip1",),
    )
    chain_state = initial_state(
        [
            make_fact("based", ("p", "usa")),
            make_fact("based", ("c2", "netherlands")),
            make_fact("based", ("c1", "ireland")),
            make_fact("ownsIP", ("p", "ip1")),
            make_fact("rentsIP", ("p", "c2", "ip1")),
            make_fact("rentsIP", ("c2", "c1", "ip1")),
        ],
        ("p", "c1", "c2"),
    )
    chain_commercial = commercial_transactions(chain_state, chain_scenario)
    chain_pairs = {
        (t.sender, t.receiver): t.amount
        for t in royalty_transactions(chain_state, chain_scenario, chain_commercial)
    }
    chain_ok = (
        chain_pairs.get(("c1", "c2")) == 27.0
        and chain_pairs.get(("c2", "p")) == 114.3
    )

    ok = exact and chain_ok and cases == 153
    announce(
        capsys,
        7,
        ok,
        f"{cases} licensing forests (<= 5 companies) match the fixed-point "
        f"oracle exactly; 2-chain pays 27.0 then 114.3",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_and_round_trip(tmp_path, capsys):
    # two separate processes with different string-hash seeds: nothing in the
    # output may depend on set or dict hash order, or on process state
    outputs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"hashseed_{hash_seed}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "loophound.cli", "explore",
                "--seed", "5", "--iterations", "12", "--expansions", "150",
                "--out", str(out),
            ],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "trajectories.jsonl").read_bytes())
    identical = outputs[0] == outputs[1]

    ruleset_text = corpus_path("table1.lhl").read_text(encoding="utf-8")
    scenario_text = corpus_path("scenario.lhl").read_text(encoding="utf-8")
    r1 = parse_ruleset(ruleset_text).document
    r2 = parse_ruleset(render_ruleset(r1))
    s1 = parse_scenario(scenario_text).document
    s2 = parse_scenario(render_scenario(s1))
    round_trip = (
        r2.ok and r2.document == r1 and s2.ok and s2.document == s1
    )

    ok = identical and round_trip
    announce(
        capsys,
        8,
        ok,
        f"trajectories.jsonl byte-identical across PYTHONHASHSEED 0 vs 12345 "
        f"({len(outputs[0])} bytes); corpus parse-render-parse round trip holds",
    )


# -------------------------------------------------------------- criterion 9


def _reference_metrics(tp: int, fp: int, tn: int, fn: int):
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else None
    precision = tp / (tp + fp) if tp + fp else None
    sensitivity = tp / (tp + fn) if tp + fn else None
    specificity = tn / (tn + fp) if tn + fp else None
    if precision is None or sensitivity is None or precision + sensitivity == 0:
        f1 = None
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    return accuracy, precision, sensitivity, specificity, f1


def test_criterion_9_metrics_identities(capsys):
    rng = np.random.default_rng(90)
    configs = [(3, 1, 1, 5), (0, 0, 0, 3), (5, 0, 0, 0), (0, 4, 2, 0)]
    while len(configs) < 20:
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 7, size=4))
        if tp + fp + tn + fn > 0:
            configs.append((tp, fp, tn, fn))

    marker_clause = Clause(body=(ClauseLiteral("managed", ("A", "bermuda")),))
    checked = 0
    exact = True
    for tp, fp, tn, fn in configs:
        rows = []
        tid = 0
        for _ in range(tp):
            rows.append(role_trajectory(tid, 100.0, 1.0, [_MARKER])); tid += 1
        for _ in range(fn):
            rows.append(role_trajectory(tid, 100.0, 1.0)); tid += 1
        for _ in range(fp):
            rows.append(role_trajectory(tid, 10.0, 1.0, [_MARKER])); tid += 1
        for _ in range(tn):
            rows.append(role_trajectory(tid, 10.0, 1.0)); tid += 1
        tset = mk_tset(rows)
        examples = label(tset, 50.0)
        background = build_background(tset, InductionConfig(u_plus=50.0))
        hypothesis = Hypothesis(
            clauses=(marker_clause,),
            clause_metrics=(Metrics.from_counts(0, 0, 0, 0),),
        )
        got = evaluate(hypothesis, examples, background)
        counts_ok = (
            got.true_positives,
            got.false_positives,
            got.true_negatives,
            got.false_negatives,
        ) == (tp, fp, tn, fn)
        reference = _reference_metrics(tp, fp, tn, fn)
        values_ok = (
            got.accuracy,
            got.precision,
            got.sensitivity,
            got.specificity,
            got.f1,
        ) == reference
        if counts_ok and values_ok:
            checked += 1
        else:
            exact = False

    ok = exact and checked == 20
    announce(
        capsys,
        9,
        ok,
        f"{checked}/20 randomized confusion configurations reproduce the "
        f"confusion-matrix arithmetic exactly",
    )
