"""Randomized best-first exploration of incorporation trajectories.

Each iteration draws up to ``expansions`` frontier nodes without replacement
from a mixture distribution and expands them.  Early iterations weight a
breadth-first prior (shallow nodes first); the weight decays as 1/(1+beta*t)
so later iterations concentrate on the high-utility frontier:

    P(s; t) = w_t * P_depth(s) + (1 - w_t) * P_utility(s)

with ``P_depth`` a softmax of ``-depth/tau0`` and ``P_utility`` a softmax of
utilities standardized by the frontier's interquartile range (floored at 1).

States are deduplicated on their fact set: a node is expanded at most once,
and a duplicate reached later keeps the shortest path.  Every terminal node
(no applicable action, or the step cap) and every multi-nationally complete
node is recorded as a trajectory.  All randomness flows from (seed,
iteration), and workers only evaluate pure functions, so results are
bit-identical for any thread count.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .dsl import RuleSetDoc, ScenarioDoc, render_ruleset, render_scenario
from .economy import ScenarioConfig, Transaction, is_multinationally_complete
from .kernel import (
    Domains,
    Fact,
    GroundedAction,
    State,
    applicable_actions,
    apply_action,
    initial_state,
)
from .taxation import TaxAssessment, evaluate_state

FORMAT_VERSION = 1


class ExplorerError(Exception):
    pass


@dataclass(frozen=True)
class SearchParams:
    seed: int = 0
    iterations: int = 50
    expansions: int = 1000
    beta: float = 0.01
    tau0: float = 5.0
    max_steps: int = 12
    cost_coefficient: float = 1.0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.cost_coefficient <= 0:
            raise ExplorerError("cost_coefficient must be positive")
        if self.tau0 <= 0:
            raise ExplorerError("tau0 must be positive")
        if self.beta < 0:
            raise ExplorerError("beta must be non-negative")
        if self.iterations < 1 or self.expansions < 1:
            raise ExplorerError("iterations and expansions must be at least 1")
        if self.max_steps < 1:
            raise ExplorerError("max_steps must be at least 1")
        if self.threads < 1:
            raise ExplorerError("threads must be at least 1")


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
    depths = np.asarray(depths, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    if depths.shape != utilities.shape or depths.ndim != 1 or depths.size == 0:
        raise ExplorerError("depths and utilities must be equal-length 1-d arrays")

    logits_d = -depths / tau0
    logits_d -= logits_d.max()
    p_depth = np.exp(logits_d)
    p_depth /= p_depth.sum()

    q1, q3 = np.percentile(utilities, [25.0, 75.0])
    sigma = max(1.0, float(q3 - q1))
    logits_u = (utilities - utilities.max()) / sigma
    p_utility = np.exp(logits_u)
    p_utility /= p_utility.sum()

    w = depth_weight(t, beta)
    p = w * p_depth + (1.0 - w) * p_utility
    return p / p.sum()


def trajectory_utility(p: float, length: int, cost_coefficient: float) -> float:
    """Utility of a trajectory: profit minus a positive per-action cost."""
    if cost_coefficient <= 0:
        raise ExplorerError("cost_coefficient must be positive")
    if length < 0:
        raise ExplorerError("length must be non-negative")
    return p - cost_coefficient * length


# ============================================================================
# Trajectories
# ============================================================================


@dataclass(frozen=True)
class Trajectory:
    id: int
    actions: tuple[GroundedAction, ...]
    final_state: State
    transactions: tuple[Transaction, ...]
    assessments: tuple[TaxAssessment, ...]
    p: float
    phi: float
    utility: float
    complete: bool
    terminal: bool

    @property
    def length(self) -> int:
        return len(self.actions)

    def action_refs(self) -> list[str]:
        return [a.legal_ref for a in self.actions]

    def applied_reduction_refs(self) -> list[tuple[str, str]]:
        out = []
        for a in self.assessments:
            out.extend(a.applied_refs())
        return out

    def total_tax(self) -> float:
        total = 0.0
        for a in self.assessments:
            total += a.tax_due
        return total

    def state_key(self) -> frozenset[Fact]:
        return self.final_state.key()


@dataclass(frozen=True)
class TrajectorySet:
    params: SearchParams
    ruleset_sha256: str
    scenario_sha256: str
    trajectories: tuple[Trajectory, ...]
    warnings: tuple[str, ...] = ()

    def complete_trajectories(self) -> list[Trajectory]:
        return [t for t in self.trajectories if t.complete]

    def by_id(self, tid: int) -> Trajectory:
        for t in self.trajectories:
            if t.id == tid:
                return t
        raise KeyError(tid)


def _doc_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ============================================================================
# Search
# ============================================================================


@dataclass
class _Node:
    state: State
    depth: int
    parent: int  # index into the node table, -1 for the root
    action: Optional[GroundedAction]
    p: float
    utility: float
    complete: bool
    terminal: bool = False
    expanded: bool = False


def _domains(scenario: ScenarioConfig) -> Domains:
    return Domains(
        companies=tuple(
            sorted(set(scenario.declared_companies) | set(scenario.company_pool))
        ),
        countries=scenario.countries,
        ips=scenario.declared_ips,
    )


def explore(
    ruleset: RuleSetDoc,
    scenario_doc: ScenarioDoc,
    params: SearchParams,
) -> TrajectorySet:
    """Run the search and return the recorded trajectory set."""
    scenario = scenario_doc.scenario
    rates = ruleset.rates()
    reductions = ruleset.reduction_rules
    rules = ruleset.action_rules
    domains = _domains(scenario)
    pool = scenario.company_pool
    cost = params.cost_coefficient

    warnings: list[str] = []
    s0 = initial_state(scenario_doc.state.facts, scenario_doc.state.companies)

    def evaluate(state: State, actions: Sequence[GroundedAction]):
        transactions, assessments, p = evaluate_state(
            state, scenario, reductions, rates, actions
        )
        complete = is_multinationally_complete(state, scenario)
        return transactions, assessments, p, complete

    _, _, p0, complete0 = evaluate(s0, ())
    nodes: list[_Node] = [
        _Node(
            state=s0,
            depth=0,
            parent=-1,
            action=None,
            p=p0,
            utility=trajectory_utility(p0, 0, cost),
            complete=complete0,
        )
    ]
    seen: dict[frozenset[Fact], int] = {s0.key(): 0}
    frontier: list[int] = [0]

    def expand_one(node_index: int):
        """Pure expansion: enumerate children of one node (no shared-state writes)."""
        node = nodes[node_index]
        acts = applicable_actions(
            node.state, rules, domains, pool, max_steps=params.max_steps
        )
        children = []
        for act in acts:
            child_state = apply_action(node.state, act, rules, domains, pool)
            children.append((act, child_state))
        return node_index, children

    root_deadend = False
    for t in range(params.iterations):
        if not frontier:
            break
        depths = np.array([nodes[i].depth for i in frontier], dtype=float)
        utils = np.array([nodes[i].utility for i in frontier], dtype=float)
        probs = selection_distribution(depths, utils, t, params.beta, params.tau0)
        k = min(params.expansions, len(frontier))
        rng = np.random.default_rng([params.seed, t])
        chosen_pos = rng.choice(len(frontier), size=k, replace=False, p=probs)
        chosen = sorted(frontier[i] for i in chosen_pos)
        chosen_set = set(chosen)
        frontier = [i for i in frontier if i not in chosen_set]

        if params.threads > 1:
            with ThreadPoolExecutor(max_workers=params.threads) as pool_exec:
                expansions = list(pool_exec.map(expand_one, chosen))
        else:
            expansions = [expand_one(i) for i in chosen]

        for node_index, children in expansions:
            node = nodes[node_index]
            node.expanded = True
            if not children:
                node.terminal = True
                if node_index == 0:
                    root_deadend = True
                continue
            parent_path = _path_actions(nodes, node_index)
            for act, child_state in children:
                key = child_state.key()
                existing = seen.get(key)
                if existing is not None:
                    other = nodes[existing]
                    if child_state.step_count < other.depth and not other.expanded:
                        other.parent = node_index
                        other.action = act
                        other.depth = child_state.step_count
                        other.utility = trajectory_utility(
                            other.p, other.depth, cost
                        )
                    continue
                _, _, p_child, complete_child = evaluate(
                    child_state, parent_path + (act,)
                )
                child = _Node(
                    state=child_state,
                    depth=child_state.step_count,
                    parent=node_index,
                    action=act,
                    p=p_child,
                    utility=trajectory_utility(p_child, child_state.step_count, cost),
                    complete=complete_child,
                )
                nodes.append(child)
                child_index = len(nodes) - 1
                seen[key] = child_index
                if child_state.step_count >= params.max_steps:
                    child.terminal = True
                    child_state.release_index()
                else:
                    frontier.append(child_index)
            node.state.release_index()

    if root_deadend:
        warnings.append("no applicable actions at the root state; empty result")

    trajectories: list[Trajectory] = []
    tid = 0
    for idx, node in enumerate(nodes):
        if idx == 0:
            continue  # the empty trajectory is excluded by definition
        if not (node.terminal or node.complete):
            continue
        actions = _path_actions(nodes, idx)
        transactions, assessments, p, complete = evaluate(node.state, actions)
        phi = cost * len(actions)
        trajectories.append(
            Trajectory(
                id=tid,
                actions=actions,
                final_state=node.state,
                transactions=tuple(transactions),
                assessments=tuple(assessments),
                p=p,
                phi=phi,
                utility=trajectory_utility(p, len(actions), cost),
                complete=complete,
                terminal=node.terminal,
            )
        )
        tid += 1

    return TrajectorySet(
        params=params,
        ruleset_sha256=_doc_hash(render_ruleset(ruleset)),
        scenario_sha256=_doc_hash(render_scenario(scenario_doc)),
        trajectories=tuple(trajectories),
        warnings=tuple(warnings),
    )


def _path_actions(nodes: list[_Node], index: int) -> tuple[GroundedAction, ...]:
    out: list[GroundedAction] = []
    while index > 0:
        node = nodes[index]
        out.append(node.action)  # type: ignore[arg-type]
        index = node.parent
    return tuple(reversed(out))


# ============================================================================
# JSONL serialization (documented in docs/trajectories.md)
# ============================================================================


def _action_to_json(a: GroundedAction) -> dict:
    return {"name": a.name, "ref": a.legal_ref, "args": dict(a.binding)}


def _trajectory_to_json(t: Trajectory) -> dict:
    return {
        "id": t.id,
        "complete": t.complete,
        "terminal": t.terminal,
        "length": t.length,
        "p": t.p,
        "phi": t.phi,
        "utility": t.utility,
        "actions": [_action_to_json(a) for a in t.actions],
        "final_state": sorted([f.predicate, *f.args] for f in t.final_state.facts),
        "transactions": [
            [tx.id, tx.time, tx.kind, tx.sender, tx.receiver, tx.amount]
            for tx in t.transactions
        ],
        "assessments": [
            {
                "company": a.company,
                "country": a.country,
                "base": a.base,
                "rate": a.rate,
                "reduced_base": a.reduced_base,
                "reduced_rate": a.reduced_rate,
                "applied_reduction": a.applied_reduction,
                "applied_exemption": a.applied_exemption,
                "tax_due": a.tax_due,
            }
            for a in t.assessments
        ],
    }


def write_jsonl(tset: TrajectorySet, path) -> None:
    header = {
        "format": FORMAT_VERSION,
        "kind": "trajectory-set",
        "params": {
            "seed": tset.params.seed,
            "iterations": tset.params.iterations,
            "expansions": tset.params.expansions,
            "beta": tset.params.beta,
            "tau0": tset.params.tau0,
            "max_steps": tset.params.max_steps,
            "cost_coefficient": tset.params.cost_coefficient,
        },
        "ruleset_sha256": tset.ruleset_sha256,
        "scenario_sha256": tset.scenario_sha256,
        "trajectory_count": len(tset.trajectories),
        "warnings": list(tset.warnings),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for t in tset.trajectories:
            fh.write(
                json.dumps(
                    _trajectory_to_json(t), sort_keys=True, separators=(",", ":")
                )
                + "\n"
            )


def read_jsonl(path) -> TrajectorySet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ExplorerError(f"{path}: empty trajectory file")
    header = json.loads(lines[0])
    if header.get("format") != FORMAT_VERSION or header.get("kind") != "trajectory-set":
        raise ExplorerError(f"{path}: not a format-{FORMAT_VERSION} trajectory set")
    hp = header["params"]
    params = SearchParams(
        seed=hp["seed"],
        iterations=hp["iterations"],
        expansions=hp["expansions"],
        beta=hp["beta"],
        tau0=hp["tau0"],
        max_steps=hp["max_steps"],
        cost_coefficient=hp["cost_coefficient"],
    )
    trajectories = []
    for line in lines[1:]:
        d = json.loads(line)
        actions = tuple(
            GroundedAction(
                a["name"], a["ref"], tuple(sorted(a["args"].items()))
            )
            for a in d["actions"]
        )
        facts = frozenset(Fact(row[0], tuple(row[1:])) for row in d["final_state"])
        state = State(
            facts=facts,
            step_count=d["length"],
            transfer_used=any(a.name == "transferIP" for a in actions),
        )
        transactions = tuple(
            Transaction(id=r[0], time=r[1], kind=r[2], sender=r[3], receiver=r[4], amount=r[5])
            for r in d["transactions"]
        )
        assessments = tuple(
            TaxAssessment(
                company=a["company"],
                country=a["country"],
                base=a["base"],
                rate=a["rate"],
                reduced_base=a["reduced_base"],
                reduced_rate=a["reduced_rate"],
                applied_reduction=a["applied_reduction"],
                applied_exemption=a["applied_exemption"],
                tax_due=a["tax_due"],
            )
            for a in d["assessments"]
        )
        trajectories.append(
            Trajectory(
                id=d["id"],
                actions=actions,
                final_state=state,
                transactions=transactions,
                assessments=assessments,
                p=d["p"],
                phi=d["phi"],
                utility=d["utility"],
                complete=d["complete"],
                terminal=d["terminal"],
            )
        )
    if len(trajectories) != header["trajectory_count"]:
        raise ExplorerError(
            f"corrupt trajectory file {path}: header announces "
            f"{header['trajectory_count']} trajectories, file holds {len(trajectories)}"
        )
    return TrajectorySet(
        params=params,
        ruleset_sha256=header["ruleset_sha256"],
        scenario_sha256=header["scenario_sha256"],
        trajectories=tuple(trajectories),
        warnings=tuple(header.get("warnings", ())),
    )
