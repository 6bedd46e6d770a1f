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
that path's state and evaluation (a node the step cap had closed rejoins the
frontier).  The nodes' depths, profits and utilities live in arrays indexed
by node, so selection gathers them and a move updates them in place.  Every terminal node
(no applicable action, or the step cap) and every multi-nationally complete
node is recorded as a trajectory.  All randomness flows from (seed,
iteration) and no step depends on set or hash order, so
``trajectories.jsonl`` is byte-identical across processes and
``PYTHONHASHSEED`` values.

One search evaluates its states through one
:class:`~loophound.taxation.EvaluationMemo`, so each distinct ledger and
each distinct tax return is computed once, however many states share it.
Settling reads one thing of a state's path, its IP sale
(:class:`~loophound.economy.Transfer`); an expanded node finds its own by
walking up to the node its ``transferIP`` made, and a child takes it, or
makes it, so no node's path is built to evaluate it.  Only records rebuild
their paths.
It grounds and applies actions through one
:class:`~loophound.kernel.ActionRules`, the world :func:`search_world`
builds: the rules grounded over the scenario's companies and pool, sorted,
its countries and its declared IPs.  The world's tables make its equal
rows and groups one object each; with
them it grounds each rule and checks each precondition once per distinct
value of the groups that step reads, and edits each group once per action
and parent group.  The search pauses the cyclic
garbage collector: its heap of nodes, states and records holds no reference
cycles, so every collection would only traverse it, and the caller's
setting is restored when the search ends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Iterable, Optional, get_args, get_type_hints

# is_multinationally_complete is no longer called here: a ledger carries its
# completeness.  The name stays importable from this module, where
# perfbench/traced_stage.py wraps it.
from .economy import (
    Transaction,
    Transfer,
    is_multinationally_complete,  # noqa: F401
)
from .kernel import (
    ActionRule,
    ActionRules,
    Domains,
    Fact,
    GroundedAction,
    KernelError,
    State,
    applicable_actions,
    apply_action,
    initial_state,
    is_constant,
)
from .taxation import EvaluationMemo, TaxAssessment, evaluate_state

if TYPE_CHECKING:
    import numpy as np

    from .dsl import RuleSetDoc, ScenarioDoc

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

    def __post_init__(self) -> None:
        # nan slips through the range checks below (every comparison with it
        # is false) and inf passes them, but either breaks the softmax
        for name in ("beta", "tau0", "cost_coefficient"):
            if not math.isfinite(getattr(self, name)):
                raise ExplorerError(f"{name} must be finite")
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


@dataclass(frozen=True)
class TrajectorySet:
    params: SearchParams
    ruleset_sha256: str
    scenario_sha256: str
    trajectories: tuple[Trajectory, ...]
    warnings: tuple[str, ...] = ()

    def complete_trajectories(self) -> list[Trajectory]:
        return [t for t in self.trajectories if t.complete]


def _doc_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ============================================================================
# Search
# ============================================================================


@dataclass(slots=True)
class _Node:
    """One search node.  Its depth, profit and utility live in the search's
    arrays, indexed by node: frontier selection reads depths and utilities,
    and a record reads its profit."""

    state: State  # its step_count is the node's depth
    parent: int  # index into the node table, -1 for the root
    action: Optional[GroundedAction]
    complete: bool = False
    terminal: bool = False
    expanded: bool = False


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
    """Run the search and return the recorded trajectory set.

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
    cost = params.cost_coefficient

    warnings: list[str] = []
    memo = EvaluationMemo(scenario, reductions, rates)

    nodes: list[_Node] = []
    # per-node depth, profit and utility, grown by doubling; frontier
    # selection gathers depths and utilities by node index.  A float64 holds
    # a Python float exactly, so a record reads its profit back unchanged.
    depth = np.empty(1024)
    profit = np.empty(1024)
    utility = np.empty(1024)

    def evaluate_node(index: int, node: _Node, transfer: Optional[Transfer]) -> None:
        """Evaluate ``node``, whose path's IP sale is ``transfer``."""
        ledger, _, p = evaluate_state(node.state, memo, transfer)
        node.complete = ledger.complete
        node.terminal = node.state.step_count >= params.max_steps
        depth[index] = node.state.step_count
        profit[index] = p
        utility[index] = trajectory_utility(p, node.state.step_count, cost)

    nodes.append(_Node(state=s0, parent=-1, action=None))
    evaluate_node(0, nodes[0], None)
    seen: dict[tuple, int] = {s0.key(): 0}
    frontier = np.array([0], dtype=np.intp)  # node indices

    root_deadend = False
    for t in range(params.iterations):
        if not frontier.size:
            break
        probs = selection_distribution(
            depth[frontier], utility[frontier], t, params.beta, params.tau0
        )
        k = min(params.expansions, frontier.size)
        rng = np.random.default_rng([params.seed, t])
        chosen_pos = rng.choice(frontier.size, size=k, replace=False, p=probs)
        chosen = np.sort(frontier[chosen_pos]).tolist()
        frontier = np.delete(frontier, chosen_pos)
        opened: list[int] = []  # nodes joining the frontier, in creation order

        for node_index in chosen:
            node = nodes[node_index]
            node.expanded = True
            # the frontier holds no node at the step cap
            acts = applicable_actions(node.state, rules)
            if not acts:
                node.terminal = True
                if node_index == 0:
                    root_deadend = True
                continue
            transfer = _transfer(nodes, node_index, rules)
            for act in acts:
                child_state = apply_action(node.state, act, rules)
                # the one-shot sale: a child's transfer is its parent's, or
                # the action that makes it
                child_transfer = transfer
                if act.name == "transferIP":
                    child_transfer = Transfer(
                        node.state.step_count, *rules.transfer_parties(act)
                    )
                key = child_state.key()
                existing = seen.get(key)
                if existing is not None:
                    other = nodes[existing]
                    if (
                        child_state.step_count < other.state.step_count
                        and not other.expanded
                    ):
                        # a shorter path to an unexpanded node: the node
                        # takes this path's state and evaluation; a node
                        # the step cap had closed opens
                        was_open = not other.terminal
                        other.state = child_state
                        other.parent = node_index
                        other.action = act
                        evaluate_node(existing, other, child_transfer)
                        if not (was_open or other.terminal):
                            opened.append(existing)
                    continue
                if len(nodes) == depth.size:
                    depth = np.concatenate([depth, np.empty_like(depth)])
                    profit = np.concatenate([profit, np.empty_like(profit)])
                    utility = np.concatenate([utility, np.empty_like(utility)])
                child = _Node(state=child_state, parent=node_index, action=act)
                nodes.append(child)
                child_index = len(nodes) - 1
                evaluate_node(child_index, child, child_transfer)
                seen[key] = child_index
                if not child.terminal:
                    opened.append(child_index)
        frontier = np.concatenate([frontier, np.array(opened, dtype=np.intp)])

    if root_deadend:
        warnings.append("no applicable actions at the root state; empty result")

    # nodes keep no evaluation: each record is evaluated again, and the memo
    # already holds its ledger and returns
    trajectories: list[Trajectory] = []
    for idx in range(1, len(nodes)):  # the empty trajectory is excluded by definition
        node = nodes[idx]
        if not (node.terminal or node.complete):
            continue
        actions = _path_actions(nodes, idx)
        ledger, assessments, _ = evaluate_state(
            node.state, memo, _transfer(nodes, idx, rules)
        )
        p = float(profit[idx])
        trajectories.append(
            Trajectory(
                id=len(trajectories),
                actions=actions,
                final_state=node.state,
                transactions=ledger.transactions,
                assessments=tuple(assessments),
                p=p,
                phi=cost * len(actions),
                utility=trajectory_utility(p, len(actions), cost),
                complete=node.complete,
                terminal=node.terminal,
            )
        )

    return tuple(trajectories), tuple(warnings)


def _transfer(nodes: list[_Node], index: int, rules: ActionRules) -> Optional[Transfer]:
    """The IP sale on the path to node ``index``, found by walking up to the
    node its ``transferIP`` made; None when the path has none."""
    node = nodes[index]
    if not node.state.transfer_used:
        return None
    while node.action.name != "transferIP":  # type: ignore[union-attr]
        node = nodes[node.parent]
    return Transfer(node.state.step_count - 1, *rules.transfer_parties(node.action))


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


def _trajectory_to_json(t: Trajectory) -> dict:
    return {
        "id": t.id,
        "complete": t.complete,
        "terminal": t.terminal,
        "length": t.length,
        "p": t.p,
        "phi": t.phi,
        "utility": t.utility,
        "actions": [
            {"name": a.name, "ref": a.legal_ref, "args": dict(a.binding)}
            for a in t.actions
        ],
        "final_state": [[f.predicate, *f.args] for f in t.final_state.facts()],
        "transactions": [list(tx) for tx in t.transactions],
        "assessments": [a._asdict() for a in t.assessments],
    }


_PARAM_FIELDS = tuple(f.name for f in fields(SearchParams))


def _field(row: dict, key: str, *types: type):
    """``row[key]``, which must be exactly of one of ``types``: JSON ``true``
    is not a number."""
    value = row[key]
    if type(value) not in types:
        raise TypeError(f"{key} is {value!r}")
    return value


def _json_types(record_type) -> tuple[tuple[type, ...], ...]:
    """Per field, in order, the decoded JSON types a record field accepts: a
    float field takes any number, an Optional field null too."""
    return tuple(
        (int, float) if hint is float else get_args(hint) or (hint,)
        for hint in get_type_hints(record_type).values()
    )


_TRANSACTION_TYPES = _json_types(Transaction)
_ASSESSMENT_TYPES = _json_types(TaxAssessment)


def _record(record, types: tuple[tuple[type, ...], ...]):
    """``record``, each of whose fields must be exactly of one of its ``types``."""
    for key, value, allowed in zip(record._fields, record, types):
        if type(value) not in allowed:
            raise TypeError(f"{key} is {value!r}")
    return record


def _action_from_json(a: dict, table: dict) -> GroundedAction:
    """The grounded action of one ``actions`` entry, as ``table``'s object for
    its value.  Each binding value must be a ground constant, checked once,
    when the table first meets the action."""
    action = GroundedAction(
        _field(a, "name", str), _field(a, "ref", str), tuple(sorted(a["args"].items()))
    )
    shared = table.get(action)
    if shared is None:
        for variable, value in action.binding:
            if type(value) is not str or not is_constant(value):
                raise ValueError(
                    f"{action.name} binds {variable} to {value!r}, not a constant"
                )
        shared = table[action] = action
    return shared


def _trajectory_from_json(row: dict, table: dict) -> Trajectory:
    """The trajectory of one line, its actions, rows and groups ``table``'s
    objects for their values.  A malformed row raises KeyError, IndexError,
    TypeError, ValueError or AttributeError; a final state that is not a
    valid state of ground constants raises an :class:`ExplorerError` naming
    the trajectory."""
    actions = tuple(_action_from_json(a, table) for a in row["actions"])
    if row["length"] != len(actions):
        raise ValueError(f"length {row['length']!r} but {len(actions)} actions")
    try:
        final_state = State.from_facts(
            (Fact(r[0], tuple(r[1:])) for r in row["final_state"]),
            step_count=len(actions),
            transfer_used=any(a.name == "transferIP" for a in actions),
            table=table,
        )
    except (KernelError, IndexError, TypeError) as exc:
        raise ExplorerError(f"final state of trajectory {row['id']}: {exc}") from exc
    return Trajectory(
        id=_field(row, "id", int),
        actions=actions,
        final_state=final_state,
        transactions=tuple(
            _record(Transaction(*tx), _TRANSACTION_TYPES) for tx in row["transactions"]
        ),
        assessments=tuple(
            _record(TaxAssessment(**a), _ASSESSMENT_TYPES) for a in row["assessments"]
        ),
        p=_field(row, "p", int, float),
        phi=_field(row, "phi", int, float),
        utility=_field(row, "utility", int, float),
        complete=_field(row, "complete", bool),
        terminal=_field(row, "terminal", bool),
    )


def write_jsonl(tset: TrajectorySet, path) -> None:
    header = {
        "format": FORMAT_VERSION,
        "kind": "trajectory-set",
        "params": asdict(tset.params),
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


def reject_constant(name: str):
    """``parse_constant`` of the readers of trajectory and hypothesis files:
    every number they hold is finite, so ``NaN``, ``Infinity`` and
    ``-Infinity`` mark a file corrupt."""
    raise ValueError(f"{name} is not a finite number")


def read_jsonl(path) -> TrajectorySet:
    """The trajectory set of a file written by :func:`write_jsonl`.  Malformed
    content, a non-finite number included, raises one :class:`ExplorerError`
    naming the header or the trajectory at fault.

    The file is read one line at a time.  One table for the whole read makes
    equal actions, final-state rows and final-state groups of all its
    trajectories one object each (see :mod:`loophound.kernel`)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise ExplorerError("empty trajectory file")
        try:
            header = json.loads(first, parse_constant=reject_constant)
        except ValueError as exc:
            raise ExplorerError(f"header: {exc}") from exc
        if not (
            isinstance(header, dict)
            and header.get("format") == FORMAT_VERSION
            and header.get("kind") == "trajectory-set"
        ):
            raise ExplorerError(f"not a format-{FORMAT_VERSION} trajectory set")
        params = header.get("params")
        if not isinstance(params, dict) or set(params) != set(_PARAM_FIELDS):
            raise ExplorerError(
                f"header params must be exactly {', '.join(_PARAM_FIELDS)}"
            )
        try:
            params = SearchParams(**params)
            hashes = (header["ruleset_sha256"], header["scenario_sha256"])
            count = header["trajectory_count"]
            warnings = tuple(header.get("warnings", ()))
        except (KeyError, TypeError) as exc:
            raise ExplorerError(f"header: {type(exc).__name__}: {exc}") from exc
        table: dict = {}
        trajectories = []
        for n, line in enumerate(lines):
            try:
                row = json.loads(line, parse_constant=reject_constant)
                trajectories.append(_trajectory_from_json(row, table))
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                raise ExplorerError(f"trajectory {n}: {type(exc).__name__}: {exc}") from exc
    if len(trajectories) != count:
        raise ExplorerError(
            f"header announces {count} trajectories, file holds {len(trajectories)}"
        )
    return TrajectorySet(params, *hashes, tuple(trajectories), warnings)
