"""Shared fixtures and helpers: bundled corpus documents, one statement of
each keyword, reference search runs, random action paths, synthetic
trajectories and a reader for policy reports."""

from __future__ import annotations

import json
import time

import pytest

from loophound import corpus_path
from loophound.dsl import parse_ruleset, parse_scenario
from loophound.explorer import explore, search_world
from loophound.kernel import State, applicable_actions, apply_action, make_fact
from loophound.policy import PolicyError
from loophound.runfiles import SearchParams, Trajectory, TrajectorySet
from loophound.taxation import TaxAssessment

# A small two-market world used by the exhaustive oracles.  The rules mirror
# the bundled corpus subset needed for incorporation and licensing.
TOY_RULESET = """
rate usa 0.35.
rate ireland 0.125.

action addChild(Parent, fresh Child, Country) ref "toy-incorp" {
  pre: exists(Parent);
  eff: exists(Child), based(Child, Country), isChildOf(Child, Parent);
}

action rentIP(Licensor, Renter, Ip) ref "license" {
  pre: ownsIP(Licensor, Ip), exists(Renter), Licensor != Renter,
       not rentsIP(_, Renter, Ip);
  eff: rentsIP(Licensor, Renter, Ip);
}

action transferIP(From, To, Ip) ref "transfer" {
  pre: ownsIP(From, Ip), exists(To), From != To,
       not rentsIP(From, _, Ip), not rentsIP(_, To, Ip);
  eff: not ownsIP(From, Ip), ownsIP(To, Ip);
}
"""

TOY_SCENARIO = """
country usa revenue 700.
country ireland revenue 30.

pool c1 c2.

set royalty_rate 0.9.
set transfer_price 50.
set action_cost 1.

company p.
ip ip1.

fact based(p, usa).
fact ownsIP(p, ip1).
"""

# one statement of each keyword the rule language knows
STATEMENTS = {
    "company": "company p.",
    "ip": "ip ip1.",
    "fact": "fact based(p, usa).",
    "rate": "rate usa 0.35.",
    "country": "country usa revenue 700.",
    "pool": "pool c1 c2.",
    "set": "set royalty_rate 0.9.",
    "action": 'action addChild(P, fresh C) ref "x" { pre: exists(P); eff: exists(C); }',
    "reduction": 'reduction "r" kind deductible { when: based(Self, usa); new_base: 0.5 * Base; }',
}


def walk(ruleset, scenario_doc, choices):
    """The action path ``choices`` pick from the scenario's initial state.

    Each choice indexes, modulo their number, the actions applicable in the
    current state; the walk stops early at a state with none.  Returns the
    states along the path, the initial one first, and the actions taken.
    """
    rules, root = search_world(ruleset.action_rules, scenario_doc)
    states = [root]
    actions = []
    for choice in choices:
        acts = applicable_actions(states[-1], rules)
        if not acts:
            break
        actions.append(acts[choice % len(acts)])
        states.append(apply_action(states[-1], actions[-1], rules))
    return states, tuple(actions)


# one company of each role, resident in its country
ROLE_FACTS = [
    ("based", ("i0", "ireland")),
    ("based", ("n0", "netherlands")),
    ("based", ("u0", "usa")),
    ("based", ("g0", "germany")),
]


def role_trajectory(
    tid: int,
    utility: float,
    tax: float | None = None,
    extra_facts=(),
    *,
    complete: bool = True,
    p: float | None = None,
) -> Trajectory:
    """A trajectory of no actions whose final state holds ``ROLE_FACTS`` and
    ``extra_facts``.  With a ``tax`` it carries one assessment, of that tax
    due from i0 in ireland, and its profit ``p`` defaults to utility + 1;
    without one it carries none, and ``p`` defaults to the utility."""
    facts = frozenset(
        make_fact(pred, args) for pred, args in [*ROLE_FACTS, *extra_facts]
    )
    assessments = ()
    if tax is not None:
        assessments = (
            TaxAssessment(
                company="i0",
                country="ireland",
                base=tax * 8.0,
                rate=0.125,
                reduced_base=tax * 8.0,
                reduced_rate=0.125,
                applied_reduction=None,
                applied_exemption=None,
                tax_due=tax,
            ),
        )
    if p is None:
        p = utility if tax is None else utility + 1.0
    return Trajectory(
        id=tid,
        actions=(),
        final_state=State.from_facts(facts, step_count=0, transfer=None),
        transactions=(),
        assessments=assessments,
        p=p,
        phi=1.0,
        utility=utility,
        complete=complete,
        terminal=True,
    )


def mk_tset(trajectories) -> TrajectorySet:
    return TrajectorySet(
        params=SearchParams(),
        ruleset_sha256="0" * 64,
        scenario_sha256="0" * 64,
        trajectories=tuple(trajectories),
    )


def read_policy_report(path) -> dict:
    """The payload of a ``policy_report.json``; PolicyError for another file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("kind") != "policy-report":
        raise PolicyError(f"{path} does not contain a policy report")
    return payload


@pytest.fixture(scope="session")
def corpus_ruleset_text() -> str:
    return corpus_path("table1.lhl").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_scenario_text() -> str:
    return corpus_path("scenario.lhl").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_ruleset(corpus_ruleset_text):
    result = parse_ruleset(corpus_ruleset_text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.document


@pytest.fixture(scope="session")
def corpus_scenario(corpus_scenario_text):
    result = parse_scenario(corpus_scenario_text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.document


@pytest.fixture(scope="session")
def toy_ruleset():
    result = parse_ruleset(TOY_RULESET)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.document


@pytest.fixture(scope="session")
def toy_scenario():
    result = parse_scenario(TOY_SCENARIO)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.document


@pytest.fixture(scope="session")
def desk_run(corpus_ruleset, corpus_scenario):
    """Scaled-down reference run: 20 iterations x 200 expansions, seed 7."""
    params = SearchParams(seed=7, iterations=20, expansions=200)
    return explore(corpus_ruleset, corpus_scenario, params)


@pytest.fixture(scope="session")
def full_run(corpus_ruleset, corpus_scenario):
    """Reference-scale run (50 x 1000, seed 7) plus its wall-clock seconds."""
    params = SearchParams(seed=7, iterations=50, expansions=1000)
    started = time.monotonic()
    tset = explore(corpus_ruleset, corpus_scenario, params)
    elapsed = time.monotonic() - started
    return tset, elapsed
