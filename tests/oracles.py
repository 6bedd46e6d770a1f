"""Brute-force condition matching, the reference the join engine is tested
against, a state's evaluation with nothing memoized, the frontier's
selection distribution with its quartiles from ``numpy.percentile``, and an
exhaustive breadth-first search of a scenario's states."""

from __future__ import annotations

import collections
import functools
import itertools

import numpy as np

from loophound.economy import Ledgers, company_flows, earning_companies, settle
from loophound.explorer import search_world
from loophound.join import compile_projection
from loophound.kernel import (
    TRANSACTION_KINDS,
    WILDCARD,
    Comparison,
    Transfer,
    applicable_actions,
    apply_action,
)
from loophound.taxation import SELF_VAR, assess


def oracle_literal_holds(state_atoms, patterns, literal, binding):
    """Direct check of one literal under a full binding; wildcards existential."""
    pool = list(state_atoms.get(literal.predicate, []))
    pool += list(patterns.get(literal.predicate, []))
    matching = []
    for atom in pool:
        if len(atom) != len(literal.args):
            continue
        ok = True
        for term, value in zip(literal.args, atom):
            if term == WILDCARD:
                continue
            resolved = binding.get(term, term)
            if resolved != value:
                ok = False
                break
        if ok:
            matching.append(atom)
    return (not matching) if literal.negated else bool(matching)


def oracle_match(state, condition, binding=None, extra_ground=None):
    """All solutions by exhaustive assignment over every constant in scope."""
    binding = dict(binding or {})
    patterns = dict(extra_ground or {})
    state_atoms: dict[str, list[tuple[str, ...]]] = {}
    constants: set[str] = set(binding.values())
    for fact in state.facts():
        state_atoms.setdefault(fact.predicate, []).append(tuple(fact.args))
        constants.update(fact.args)
    for pred, atoms in patterns.items():
        for atom in atoms:
            constants.update(atom)
    for item in condition:
        if isinstance(item, Comparison):
            for term in (item.left, item.right):
                if not term[0].isupper() and term != WILDCARD:
                    constants.add(term)
        else:
            for term in item.args:
                if term != WILDCARD and not term[0].isupper():
                    constants.add(term)

    variables = []
    for item in condition:
        for term in item.variables():
            if term not in binding and term not in variables:
                variables.append(term)

    solutions = []
    for combo in itertools.product(sorted(constants), repeat=len(variables)):
        candidate = dict(binding)
        candidate.update(zip(variables, combo))
        ok = True
        for item in condition:
            if isinstance(item, Comparison):
                left = candidate.get(item.left, item.left)
                right = candidate.get(item.right, item.right)
                holds = (left == right) if item.op == "==" else (left != right)
            else:
                holds = oracle_literal_holds(state_atoms, patterns, item, candidate)
            if not holds:
                ok = False
                break
        if ok:
            solution = {v: candidate[v] for v in variables}
            if solution not in solutions:
                solutions.append(solution)
    return solutions


def path_transfer(ruleset, actions):
    """The :class:`~loophound.kernel.Transfer` of an action path, read off
    its ``transferIP`` rule's effects: the owner its deleted ``ownsIP``
    names sells, the owner its added ``ownsIP`` names buys.  None when the
    path makes no sale."""
    for step, action in enumerate(actions):
        if action.name != "transferIP":
            continue
        rule = next(
            r for r in ruleset.action_rules if r.key() == (action.name, action.legal_ref)
        )
        (sold,) = [lit for lit in rule.del_effects if lit.predicate == "ownsIP"]
        (bought,) = [lit for lit in rule.add_effects if lit.predicate == "ownsIP"]
        binding = dict(action.binding)
        return Transfer(step, binding[sold.args[0]], binding[bought.args[0]])
    return None


@functools.lru_cache(maxsize=256)
def _compiled(condition):
    """The one-condition projection on ``Self``, compiled once per test
    session: compiling is not what the oracle checks, and every evaluation
    of a search would repeat it."""
    return compile_projection([condition], SELF_VAR)


def evaluate_from_scratch(state, scenario, reductions, rates):
    """What ``evaluate_state`` gives, computed with nothing memoized: a ledger
    settled anew, with the sale ``state`` carries, each rule's applicability
    from a projection of its condition alone over the ledger's transactions,
    each return assessed, and the profit summed as inflows minus outflows
    over the sorted companies, then minus each tax.  Returns (transactions,
    assessments, profit, complete)."""
    transactions = settle(state, scenario, Ledgers()).transactions
    flows = company_flows(transactions)
    rows = kind_rows(
        {"transaction": [(t.kind, t.sender, t.receiver) for t in transactions]}
    )
    holders = [set(_compiled(rule.query())(state.groups, rows)) for rule in reductions]
    managed = dict(state.rows("managed"))
    based = dict(state.rows("based"))
    assessments = []
    for company in state.companies():
        rules = [rule for rule, held in zip(reductions, holders) if company in held]
        base = flows.get(company, (0.0, 0.0))[0]
        country = managed.get(company, based.get(company))
        assessments.append(assess(company, country, base, rules, rates))
    profit = 0.0
    for company in sorted(flows):
        fin, fout = flows[company]
        profit += fin - fout
    for a in assessments:
        profit -= a.tax_due
    covered = {country for _, country in earning_companies(state, scenario)}
    complete = all(
        c in covered for c in scenario.countries if c not in scenario.tax_havens
    )
    return transactions, assessments, profit, complete


def kind_rows(patterns):
    """``patterns``' ``transaction`` triples as a projection takes them: per
    kind of TRANSACTION_KINDS, the (sender, receiver) pairs, in order."""
    triples = patterns.get("transaction", ())
    return tuple(
        tuple((s, r) for k, s, r in triples if k == kind) for kind in TRANSACTION_KINDS
    )


def selection_with_percentile(depths, utilities, t, beta, tau0):
    """The search's selection distribution over a frontier, its utility
    quartiles taken by ``numpy.percentile``: a depth softmax at temperature
    ``tau0`` mixed with a utility softmax scaled by the interquartile range
    (floored at 1), the depth weight 1/(1+beta*t)."""
    depths = np.asarray(depths, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    logits_d = -depths / tau0
    logits_d -= logits_d.max()
    p_depth = np.exp(logits_d)
    p_depth /= p_depth.sum()
    q1, q3 = np.percentile(utilities, [25.0, 75.0])
    sigma = max(1.0, float(q3 - q1))
    p_utility = np.exp((utilities - utilities.max()) / sigma)
    p_utility /= p_utility.sum()
    w = 1.0 / (1.0 + beta * t)
    p = w * p_depth + (1.0 - w) * p_utility
    return p / p.sum()


def bfs_oracle(ruleset, scenario_doc, max_steps):
    """Exhaustive breadth-first enumeration of the search's world, dedup on
    fact sets.

    Returns (terminal_keys, complete_keys) where terminal covers both
    dead ends and the depth cutoff; the root is excluded to mirror the
    searcher's no-empty-trajectory convention.  A search whose budget
    covers its frontier records these sets (:func:`recorded_sets`).
    """
    scenario = scenario_doc.scenario
    rules, s0 = search_world(ruleset.action_rules, scenario_doc)
    seen = {s0.key()}
    queue = collections.deque([s0])
    terminal, complete = set(), set()
    while queue:
        state = queue.popleft()
        is_root = state.step_count == 0
        acts = ()
        if state.step_count >= max_steps:
            terminal.add(state.key())
        else:
            acts = applicable_actions(state, rules)
            if not acts and not is_root:
                terminal.add(state.key())
        if not is_root and settle(state, scenario, Ledgers()).complete:
            complete.add(state.key())
        for act in acts:
            child = apply_action(state, act, rules)
            if child.key() not in seen:
                seen.add(child.key())
                queue.append(child)
    return terminal, complete


def recorded_sets(tset):
    """The keys of ``tset``'s terminal and of its complete final states, as
    :func:`bfs_oracle` returns them."""
    terminal = {t.final_state.key() for t in tset.trajectories if t.terminal}
    return terminal, {t.final_state.key() for t in tset.trajectories if t.complete}
