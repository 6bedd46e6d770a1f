"""Brute-force condition matching: the reference the join engine is tested against."""

from __future__ import annotations

import itertools

from loophound.kernel import WILDCARD, Comparison


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
