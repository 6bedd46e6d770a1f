"""Randomized best-first exploration of incorporation trajectories.

Each iteration draws up to ``expansions`` frontier nodes without replacement
from a mixture distribution and expands them.  Early iterations weight a
breadth-first prior (shallow nodes first); the weight decays as 1/(1+beta*t)
so later iterations concentrate on the high-utility frontier:

    P(s; t) = w_t * P_depth(s) + (1 - w_t) * P_utility(s)

with ``P_depth`` a softmax of ``-depth/tau0`` and ``P_utility`` a softmax of
utilities standardized by the frontier's interquartile range (floored at 1).

States are deduplicated on their groups (see :class:`~loophound.kernel.State`),
one-to-one with their fact sets: a node is expanded at most once,
and an unexpanded node reached again by a shorter path moves onto it, taking
that path's sale, parent, action and evaluation (a node the step cap had
closed rejoins the frontier).  A node is a row of a table held in columns
indexed by node, as the state registry of Fast Downward (Helmert, JAIR 2006)
stores each state once under an integer id: its groups, which are its key;
its sale; its parent and the action from it; its depth and utility; its
complete, terminal and expanded flags.  Each column grows by one entry per
new node; selection gathers depths and utilities through NumPy views of
their columns, and a move rewrites a row in place.  A node keeps no profit:
a record takes it from the evaluation it makes anyway.  A node's
:class:`~loophound.kernel.State` is built from its row only when the node is
expanded or recorded, and the successor each action yields is evaluated and
dropped, so the search holds no State per node.  Every terminal node
(no applicable action, or the step cap) and every multi-nationally complete
node is recorded as a trajectory.  All randomness flows from (seed,
iteration) and no step depends on set or hash order, so
``trajectories.jsonl`` is byte-identical across processes and
``PYTHONHASHSEED`` values.

One search evaluates its states through one
:class:`~loophound.taxation.EvaluationMemo`, so each distinct ledger and
each distinct tax return is computed once, however many states share it.
A state carries the one thing of its path that settling reads, its IP sale
(:class:`~loophound.kernel.Transfer`), so no node's path is built to
evaluate it; only records rebuild their paths.
It grounds and applies actions through one
:class:`~loophound.kernel.ActionRules`, the world :func:`search_world`
builds: the rules grounded over the scenario's companies and pool, sorted,
its countries and its declared IPs.  The world's tables make its equal
rows, groups and sales one object each; with
them it grounds each rule and checks each precondition once per distinct
value of the groups that step reads, and edits each group once per action
and parent group.  The search pauses the cyclic
garbage collector: its heap of rows, groups and records holds no reference
cycles, so every collection would only traverse it, and the caller's
setting is restored when the search ends.
"""

from __future__ import annotations

import gc
import math
from array import array
from typing import TYPE_CHECKING, Iterable, Optional

# is_multinationally_complete is no longer called here: a ledger carries its
# completeness.  The name stays importable from this module, where
# perfbench/traced_stage.py wraps it.
from .economy import is_multinationally_complete  # noqa: F401
from .kernel import (
    ActionRule,
    ActionRules,
    Domains,
    GroundedAction,
    State,
    Transfer,
    applicable_actions,
    apply_action,
    initial_state,
)
from .runfiles import SearchParams, Trajectory, TrajectorySet
from .taxation import EvaluationMemo, evaluate_state

if TYPE_CHECKING:
    import numpy as np

    from .dsl import RuleSetDoc, ScenarioDoc


class ExplorerError(Exception):
    pass


def depth_weight(t: int, beta: float) -> float:
    """Mixture weight of the breadth-first prior at iteration ``t``: 1/(1+beta*t)."""
    if t < 0:
        raise ExplorerError("iteration index must be non-negative")
    return 1.0 / (1.0 + beta * t)


def selection_distribution(
    depths: np.ndarray,
    utilities: np.ndarray,
    t: int,
    beta: float,
    tau0: float,
) -> np.ndarray:
    """Mixed selection probabilities over the frontier; sums to 1."""
    import numpy as np  # only the search needs numpy: other stages start without it

    depths = np.asarray(depths, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    if depths.shape != utilities.shape or depths.ndim != 1 or depths.size == 0:
        raise ExplorerError("depths and utilities must be equal-length 1-d arrays")

    logits_d = -depths / tau0
    logits_d -= logits_d.max()
    p_depth = np.exp(logits_d)
    p_depth /= p_depth.sum()

    q1, q3 = quartiles(utilities)
    sigma = max(1.0, q3 - q1)
    logits_u = (utilities - utilities.max()) / sigma
    p_utility = np.exp(logits_u)
    p_utility /= p_utility.sum()

    w = depth_weight(t, beta)
    p = w * p_depth + (1.0 - w) * p_utility
    return p / p.sum()


def _neighbours(n: int, q: float) -> tuple[int, int, float]:
    """The positions ``(lo, hi)`` of the two order statistics of ``n`` values
    that numpy's ``linear`` percentile interpolates between for the quantile
    ``q``, and the fraction ``g`` it weighs them with.  They come from the
    virtual index ``(n-1)*q``; at or past the last position numpy takes the
    last value twice and measures ``g`` from the index -1 it marks it with."""
    index = (n - 1) * q
    if index >= n - 1:
        return n - 1, n - 1, index + 1.0
    lo = math.floor(index)
    return lo, lo + 1, index - lo


def percentile(values, q: float) -> float:
    """The ``q`` quantile of ``values`` by ``numpy.percentile``'s default
    ``linear`` method, computed as numpy computes it from the same two order
    statistics: its two-sided interpolation approaches the upper neighbour
    from above when the fraction is at least one half.  ``values`` need only
    be in order at the two positions :func:`_neighbours` names, as an
    ascending sequence is, and an array partitioned at them."""
    lo, hi, g = _neighbours(len(values), q)
    a, b = values[lo], values[hi]
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def quartiles(values: np.ndarray) -> tuple[float, float]:
    """``numpy.percentile(values, [25, 75])`` bit for bit, from a copy of
    ``values`` partitioned at the positions numpy partitions at: the four
    neighbours, and the first and last, so that equal values, 0.0 and -0.0
    among them, land where they land in numpy.  ``numpy.percentile`` finds
    those positions with ``numpy.unique``, whose first call imports
    ``numpy.ma``; the search needs nothing else of it."""
    import numpy as np

    n = len(values)
    kth = {0, n - 1}
    for q in (0.25, 0.75):
        kth.update(_neighbours(n, q)[:2])
    ordered = np.partition(values, sorted(kth))
    return float(percentile(ordered, 0.25)), float(percentile(ordered, 0.75))


def trajectory_utility(p: float, length: int, cost_coefficient: float) -> float:
    """Utility of a trajectory: profit minus a positive per-action cost."""
    if cost_coefficient <= 0:
        raise ExplorerError("cost_coefficient must be positive")
    if length < 0:
        raise ExplorerError("length must be non-negative")
    return p - cost_coefficient * length


def _doc_hash(text: str) -> str:
    import hashlib  # only explore hashes: the stages that read its file skip OpenSSL

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ============================================================================
# Search
# ============================================================================


def search_world(
    action_rules: Iterable[ActionRule], scenario_doc: ScenarioDoc
) -> tuple[ActionRules, State]:
    """The world a search over ``scenario_doc`` plans in, and its root.

    ``action_rules`` are grounded over three domains: the companies, the
    scenario's declared companies and its ``pool`` together, sorted; its
    countries; and its declared IPs.  Fresh parameters bind ids from the
    pool.  The root is the scenario's initial state, built on the world's
    ``table``.  Every search, replay and oracle builds its world here.
    """
    scenario = scenario_doc.scenario
    companies = set(scenario.declared_companies) | set(scenario.company_pool)
    domains = Domains(tuple(sorted(companies)), scenario.countries, scenario.declared_ips)
    rules = ActionRules(action_rules, domains, scenario.company_pool)
    state = scenario_doc.state
    return rules, initial_state(state.facts, state.companies, rules.table)


def explore(
    ruleset: RuleSetDoc,
    scenario_doc: ScenarioDoc,
    params: SearchParams,
) -> TrajectorySet:
    """Run the search and return the recorded trajectory set.  Each action
    costs the scenario's ``action_cost``, which the set records as its
    ``cost_coefficient``.

    The documents are checked with :func:`loophound.dsl.rate_problem` before
    the search starts: a scenario country without a statutory rate raises
    :class:`ExplorerError`.  The cyclic garbage collector is paused while
    the search runs and left enabled or disabled, as the caller had it, when
    it returns or raises.
    """
    # the only use of the document layer here: the stages that read
    # trajectories load this module without it
    from .dsl import rate_problem, render_ruleset, render_scenario

    problem = rate_problem(ruleset, scenario_doc)
    if problem is not None:
        raise ExplorerError(problem)
    collecting = gc.isenabled()
    gc.disable()
    try:
        trajectories, warnings = _search(ruleset, scenario_doc, params)
    finally:
        if collecting:
            gc.enable()
    return TrajectorySet(
        params=params,
        cost_coefficient=scenario_doc.scenario.action_cost,
        ruleset_sha256=_doc_hash(render_ruleset(ruleset)),
        scenario_sha256=_doc_hash(render_scenario(scenario_doc)),
        trajectories=trajectories,
        warnings=warnings,
    )


def _search(
    ruleset: RuleSetDoc,
    scenario_doc: ScenarioDoc,
    params: SearchParams,
) -> tuple[tuple[Trajectory, ...], tuple[str, ...]]:
    """The recorded trajectories and the warnings of one search."""
    import numpy as np

    scenario = scenario_doc.scenario
    rates = ruleset.rates()
    reductions = ruleset.reduction_rules
    rules, s0 = search_world(ruleset.action_rules, scenario_doc)
    cost = scenario.action_cost

    warnings: list[str] = []
    memo = EvaluationMemo(scenario, reductions, rates)

    # The node table: one row per node, in columns indexed by node.  A row
    # holds the node's groups, its key in ``seen``; its IP sale; its parent
    # (-1 for the root) and the action from it; its depth and utility; and
    # its complete, terminal and expanded flags, a byte each.  Each column
    # grows by one entry per new node, and frontier selection gathers depths
    # and utilities by node index through a NumPy view of their columns.  A
    # node's State is built from its row only when it is expanded or
    # recorded.  The root is below the step cap: max_steps is at least 1.
    ledger, _, p = evaluate_state(s0, memo)
    keys: list[tuple] = [s0.key()]
    sales: list[Optional[Transfer]] = [s0.transfer]
    via: list[Optional[GroundedAction]] = [None]
    parent = array("q", [-1])
    depth = array("d", [0.0])
    utility = array("d", [trajectory_utility(p, 0, cost)])
    complete = bytearray([ledger.complete])
    terminal = bytearray(1)
    expanded = bytearray(1)

    def state_of(index: int) -> State:
        return State.from_checked_groups(keys[index], int(depth[index]), sales[index])

    seen: dict[tuple, int] = {s0.key(): 0}
    frontier = np.array([0], dtype=np.intp)  # node indices

    for t in range(params.iterations):
        if not frontier.size:
            break
        depths, utilities = np.frombuffer(depth)[frontier], np.frombuffer(utility)[frontier]
        probs = selection_distribution(depths, utilities, t, params.beta, params.tau0)
        k = min(params.expansions, frontier.size)
        rng = np.random.default_rng([params.seed, t])
        chosen_pos = rng.choice(frontier.size, size=k, replace=False, p=probs)
        chosen = np.sort(frontier[chosen_pos]).tolist()
        frontier = np.delete(frontier, chosen_pos)
        opened: list[int] = []  # nodes joining the frontier, in creation order

        for node_index in chosen:
            expanded[node_index] = True
            state = state_of(node_index)
            # the frontier holds no node at the step cap
            acts = applicable_actions(state, rules)
            if not acts:
                terminal[node_index] = True
                continue
            for act in acts:
                child = apply_action(state, act, rules)
                key = child.key()
                steps = child.step_count
                existing = seen.get(key)
                if existing is not None and (expanded[existing] or steps >= depth[existing]):
                    continue
                ledger, _, p = evaluate_state(child, memo)
                closed = steps >= params.max_steps
                if existing is None:
                    if not closed:
                        opened.append(len(keys))
                    seen[key] = len(keys)
                    keys.append(key)
                    sales.append(child.transfer)
                    via.append(act)
                    parent.append(node_index)
                    depth.append(steps)
                    utility.append(trajectory_utility(p, steps, cost))
                    complete.append(ledger.complete)
                    terminal.append(closed)
                    expanded.append(False)
                    continue
                # a shorter path to an unexpanded node: the node takes this
                # path's sale, parent, action and evaluation; a node the
                # step cap had closed opens
                if terminal[existing] and not closed:
                    opened.append(existing)
                sales[existing] = child.transfer
                via[existing] = act
                parent[existing] = node_index
                depth[existing] = steps
                utility[existing] = trajectory_utility(p, steps, cost)
                complete[existing] = ledger.complete
                terminal[existing] = closed
        frontier = np.concatenate([frontier, np.array(opened, dtype=np.intp)])

    if terminal[0]:
        warnings.append("no applicable actions at the root state; empty result")

    # nodes keep no evaluation: each record is evaluated again, and the memo
    # already holds its ledger and returns
    trajectories: list[Trajectory] = []
    for idx in range(1, len(keys)):  # the empty trajectory is excluded by definition
        if not (terminal[idx] or complete[idx]):
            continue
        state = state_of(idx)
        actions = _path_actions(parent, via, idx)
        ledger, assessments, p = evaluate_state(state, memo)
        trajectories.append(
            Trajectory(
                id=len(trajectories),
                actions=actions,
                final_state=state,
                transactions=ledger.transactions,
                assessments=tuple(assessments),
                p=p,
                phi=cost * len(actions),
                utility=trajectory_utility(p, len(actions), cost),
                complete=bool(complete[idx]),
                terminal=bool(terminal[idx]),
            )
        )

    return tuple(trajectories), tuple(warnings)


def _path_actions(
    parent: array, via: list[Optional[GroundedAction]], index: int
) -> tuple[GroundedAction, ...]:
    """The actions on the path from the root to node ``index``, read up the
    node table's ``parent`` and ``via`` columns."""
    out: list[GroundedAction] = []
    while index > 0:
        out.append(via[index])  # type: ignore[arg-type]
        index = parent[index]
    return tuple(reversed(out))
