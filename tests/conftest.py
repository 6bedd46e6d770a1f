"""Shared fixtures and helpers: bundled corpus documents, reference search runs,
random action paths and a reader for policy reports."""

from __future__ import annotations

import json
import time

import pytest

from loophound import corpus_path
from loophound.dsl import parse_ruleset, parse_scenario
from loophound.explorer import explore, search_world
from loophound.kernel import applicable_actions, apply_action
from loophound.policy import PolicyError
from loophound.runfiles import SearchParams

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
