"""Settlement layer tests: royalty cascades, completeness, transaction flows.

The royalty oracle below recomputes cascade payments by fixed-point
iteration, independently of the recursive implementation.  Sums are
accumulated in the same sorted-edge order so results must agree to exact
float equality, not just within tolerance.
"""

from __future__ import annotations

import itertools

import pytest

from loophound.dsl import parse_scenario
from loophound.economy import (
    COMMERCIAL,
    ROYALTY,
    TRANSFER,
    EconomyError,
    Ledgers,
    ScenarioConfig,
    commercial_transactions,
    company_flows,
    earning_companies,
    is_multinationally_complete,
    royalty_transactions,
    settle,
)
from loophound.kernel import State, Transfer, initial_state, make_fact


# ------------------------------------------------------------------ helpers


def make_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        countries=("m1", "m2", "h1"),
        revenue_table={"m1": 100.0, "m2": 30.0},
        tax_havens=frozenset({"h1"}),
        company_pool=(),
        royalty_rate=0.9,
        transfer_price=50.0,
        action_cost=1.0,
        declared_ips=("ip1",),
    )
    base.update(overrides)
    if "declared_companies" not in base:
        base["declared_companies"] = ("a0", "a1", "a2", "a3", "a4")
    return ScenarioConfig(**base)


def forest_state(countries: list[str], parents: list[int | None], scenario):
    """State for one licensing forest over companies a0..a{n-1}.

    ``parents[i]`` is the licensor index of company i (None = no licence);
    a0 always owns ip1.  Edges run from lower to higher index only, so the
    graph is acyclic and each renter has a single licensor by construction.
    """
    n = len(countries)
    ids = [f"a{i}" for i in range(n)]
    facts = [make_fact("based", (ids[i], countries[i])) for i in range(n)]
    facts.append(make_fact("ownsIP", (ids[0], "ip1")))
    for i, parent in enumerate(parents):
        if parent is not None:
            facts.append(make_fact("rentsIP", (ids[parent], ids[i], "ip1")))
    return initial_state(facts, tuple(ids))


def oracle_cascade(state, scenario, commercial) -> dict[tuple, float]:
    """Fixed-point royalty computation: iterate edge payments until stable.

    Received royalties are summed in sorted edge order, matching the
    accumulation order of the implementation, so a converged fixed point is
    bitwise equal to the recursive bottom-up evaluation.
    """
    edges = sorted(tuple(args) for args in state.rows("rentsIP"))
    revenue: dict[str, float] = {}
    for t in commercial:
        revenue[t.receiver] = revenue.get(t.receiver, 0.0) + t.amount
    payment = {edge: 0.0 for edge in edges}
    for _ in range(len(edges) + 1):
        updated = {}
        for licensor, renter, ip in edges:
            received = 0.0
            for e2 in edges:
                if e2[0] == renter and e2[2] == ip:
                    received += payment[e2]
            base = revenue.get(renter, 0.0) + received
            updated[(licensor, renter, ip)] = scenario.royalty_rate * base
        if updated == payment:
            return payment
        payment = updated
    raise AssertionError("cascade did not reach a fixed point (cycle?)")


def all_forests(n: int):
    """Every parent assignment with edges from lower to higher index."""
    choice_sets = [[None, *range(i)] for i in range(n)]
    for parents in itertools.product(*choice_sets):
        yield list(parents)


# ------------------------------------------------------- cascade vs oracle


class TestRoyaltyCascade:
    def check_forest(self, countries, parents, scenario):
        state = forest_state(countries, parents, scenario)
        commercial = commercial_transactions(state, scenario)
        got = royalty_transactions(state, scenario, commercial)
        expected = oracle_cascade(state, scenario, commercial)
        assert len(got) == len(expected)
        for t in got:
            # implementation emits one payment per edge, renter -> licensor
            key = next(
                e for e in expected if e[0] == t.receiver and e[1] == t.sender
            )
            assert t.amount == expected[key]
            assert t.kind == ROYALTY

    def test_all_graphs_up_to_five_companies(self):
        """Every acyclic licensing graph with <= 5 companies matches the oracle."""
        scenario = make_scenario()
        cases = 0
        # n <= 3: all country assignments x all forests
        for n in (1, 2, 3):
            for countries in itertools.product(scenario.countries, repeat=n):
                for parents in all_forests(n):
                    self.check_forest(list(countries), parents, scenario)
                    cases += 1
        # n in {4, 5}: all forests under a fixed mixed assignment
        for n in (4, 5):
            countries = [scenario.countries[i % 3] for i in range(n)]
            for parents in all_forests(n):
                self.check_forest(countries, parents, scenario)
                cases += 1
        assert cases == 3 + 2 * 9 + 6 * 27 + 24 + 120

    def test_five_company_random_revenues(self):
        import numpy as np

        rng = np.random.default_rng(42)
        for _ in range(40):
            revenues = {
                "m1": float(rng.integers(1, 500)),
                "m2": float(rng.integers(1, 500)),
            }
            scenario = make_scenario(revenue_table=revenues)
            countries = [
                scenario.countries[int(k)] for k in rng.integers(0, 3, size=5)
            ]
            parents = [
                None if i == 0 else (None if rng.random() < 0.3 else int(rng.integers(0, i)))
                for i in range(5)
            ]
            self.check_forest(countries, parents, scenario)

    def test_two_chain_example(self):
        """p owns, licenses c2 (earns 100), c2 sub-licenses c1 (earns 30)."""
        scenario = ScenarioConfig(
            countries=("usa", "netherlands", "ireland"),
            revenue_table={"usa": 700.0, "netherlands": 100.0, "ireland": 30.0},
            tax_havens=frozenset(),
            company_pool=(),
            royalty_rate=0.9,
            declared_companies=("p", "c1", "c2"),
            declared_ips=("ip1",),
        )
        state = initial_state(
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
        commercial = commercial_transactions(state, scenario)
        royalties = royalty_transactions(state, scenario, commercial)
        by_pair = {(t.sender, t.receiver): t.amount for t in royalties}
        assert by_pair[("c1", "c2")] == 27.0
        assert by_pair[("c2", "p")] == 114.3
        assert len(royalties) == 2

    def two_ip_state(self, edges):
        """a owns ip1 and b owns ip2; b and c earn 300 each in m1, a in the haven."""
        facts = [
            make_fact("based", ("a", "h1")),
            make_fact("based", ("b", "m1")),
            make_fact("based", ("c", "m1")),
            make_fact("ownsIP", ("a", "ip1")),
            make_fact("ownsIP", ("b", "ip2")),
        ]
        facts += [make_fact("rentsIP", edge) for edge in edges]
        scenario = make_scenario(
            revenue_table={"m1": 300.0},
            declared_companies=("a", "b", "c"),
            declared_ips=("ip1", "ip2"),
        )
        return scenario, initial_state(facts, ("a", "b", "c"))

    def test_sub_licensees_of_another_ip_pay_nothing_upstream(self):
        """a -ip1-> b -ip2-> c: b forwards only its own revenue to a."""
        scenario, state = self.two_ip_state([("a", "b", "ip1"), ("b", "c", "ip2")])
        commercial = commercial_transactions(state, scenario)
        royalties = royalty_transactions(state, scenario, commercial)
        by_pair = {(t.sender, t.receiver): t.amount for t in royalties}
        assert by_pair == {("b", "a"): 270.0, ("c", "b"): 270.0}
        expected = oracle_cascade(state, scenario, commercial)
        assert by_pair == {(r, lic): amount for (lic, r, _), amount in expected.items()}

    def test_licences_crossing_two_ips_settle(self):
        """a licenses ip1 to b and b licenses ip2 to a: no royalty cycle."""
        scenario, state = self.two_ip_state([("a", "b", "ip1"), ("b", "a", "ip2")])
        royalties = [t for t in settle(state, scenario, Ledgers()).transactions if t.kind == ROYALTY]
        assert {(t.sender, t.receiver): t.amount for t in royalties} == {
            ("b", "a"): 270.0,
            ("a", "b"): 0.0,
        }

    def test_no_edges_no_royalties(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2"], [None, None], scenario)
        commercial = commercial_transactions(state, scenario)
        assert royalty_transactions(state, scenario, commercial) == []

    def test_rate_zero_zeroes_cascade(self):
        scenario = make_scenario(royalty_rate=0.0)
        state = forest_state(["m1", "m2", "m1"], [None, 0, 1], scenario)
        commercial = commercial_transactions(state, scenario)
        for t in royalty_transactions(state, scenario, commercial):
            assert t.amount == 0.0

    def test_rate_one_forwards_everything(self):
        # the closed upper end of [0, 1]: each renter forwards all it earns
        scenario = make_scenario(royalty_rate=1.0)
        state = forest_state(["m1", "m2"], [None, 0], scenario)
        commercial = commercial_transactions(state, scenario)
        (royalty,) = royalty_transactions(state, scenario, commercial)
        earned = {t.receiver: t.amount for t in commercial}
        assert royalty.amount == earned[royalty.sender] > 0.0


# --------------------------------------------------------- earning / completeness


class TestEarning:
    def test_haven_company_earns_nothing(self):
        scenario = make_scenario()
        state = forest_state(["h1", "m1"], [None, 0], scenario)
        earners = earning_companies(state, scenario)
        assert earners == [("a1", "m1")]

    def test_company_without_ip_access_earns_nothing(self):
        scenario = make_scenario(declared_companies=("a0", "a1"))
        state = initial_state(
            [
                make_fact("based", ("a0", "m1")),
                make_fact("based", ("a1", "m2")),
                make_fact("ownsIP", ("a0", "ip1")),
            ],
            ("a0", "a1"),
        )
        assert earning_companies(state, scenario) == [("a0", "m1")]

    def test_rented_ip_grants_access(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2"], [None, 0], scenario)
        assert earning_companies(state, scenario) == [("a0", "m1"), ("a1", "m2")]

    def test_completeness_requires_every_market(self):
        scenario = make_scenario()
        partial = settle(forest_state(["m1", "m1"], [None, 0], scenario), scenario, Ledgers())
        assert not is_multinationally_complete(partial.transactions, scenario)
        assert not partial.complete
        full = settle(forest_state(["m1", "m2"], [None, 0], scenario), scenario, Ledgers())
        assert is_multinationally_complete(full.transactions, scenario)
        assert full.complete

    def test_haven_not_required_for_completeness(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2"], [None, 0], scenario)
        # no company sits in h1, yet the state is complete
        assert settle(state, scenario, Ledgers()).complete

    def test_corpus_scenario_initial_state_incomplete(self, corpus_scenario):
        config = corpus_scenario.scenario
        state = initial_state(
            corpus_scenario.state.facts, corpus_scenario.state.companies
        )
        # only p exists, based in usa; four other markets are uncovered
        assert not settle(state, config, Ledgers()).complete
        assert earning_companies(state, config) == [("p", "usa")]


# ------------------------------------------------------------- transactions


class TestCommercial:
    def test_amounts_match_revenue_table(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2"], [None, 0], scenario)
        out = commercial_transactions(state, scenario)
        assert [(t.sender, t.receiver, t.amount) for t in out] == [
            ("m1", "a0", 100.0),
            ("m2", "a1", 30.0),
        ]
        assert all(t.kind == COMMERCIAL for t in out)

    def test_zero_revenue_market_pays_zero(self):
        # a market of revenue 0 is a market, not a haven: its company with IP
        # access earns a commercial transaction of 0.0
        result = parse_scenario(
            "country x revenue 0.\ncompany a.\nip i.\n"
            "fact based(a, x).\nfact ownsIP(a, i).\n"
        )
        assert result.ok, [str(d) for d in result.diagnostics]
        doc = result.document
        state = initial_state(doc.state.facts, doc.state.companies)
        out = commercial_transactions(state, doc.scenario)
        assert [(t.sender, t.receiver, t.amount) for t in out] == [("x", "a", 0.0)]


class TestTransfer:
    """The sale's payment in the ledger :func:`settle` builds."""

    def test_buyer_pays_seller(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2"], [None, None], scenario)
        plain = settle(state, scenario, Ledgers()).transactions
        # the sale was the second action of the path
        sold = State(state.groups, state.step_count, Transfer(1, seller="a0", buyer="a1"))
        ledger = settle(sold, scenario, Ledgers())
        *rest, t = ledger.transactions
        assert tuple(rest) == plain
        assert t.id == len(plain)
        assert t.kind == TRANSFER
        assert t.sender == "a1"  # new owner pays
        assert t.receiver == "a0"
        assert t.amount == 50.0
        assert t.time == 2
        assert ledger.rows[2] == (("a1", "a0"),)
        # the payment moves money inside the group: inflows change, the
        # market sum does not
        assert ledger.inflows == (100.0 + 50.0, 0.0)
        assert ledger.market == settle(state, scenario, Ledgers()).market == 100.0

    def test_no_transfer_returns_none(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2"], [None, 0], scenario)
        ledger = settle(state, scenario, Ledgers())
        assert all(t.kind != TRANSFER for t in ledger.transactions)
        assert ledger.rows[2] == ()


class TestSettle:
    def build(self):
        scenario = make_scenario()
        state = forest_state(["m1", "m2", "h1"], [None, 0, 1], scenario)
        return scenario, state

    def test_ids_sequential_and_ordered(self):
        scenario, state = self.build()
        out = settle(state, scenario, Ledgers()).transactions
        assert [t.id for t in out] == list(range(len(out)))
        kinds = [t.kind for t in out]
        assert kinds == sorted(kinds, key=[COMMERCIAL, ROYALTY, TRANSFER].index)

    def test_settle_is_deterministic(self):
        scenario, state = self.build()
        assert settle(state, scenario, Ledgers()) == settle(state, scenario, Ledgers())

    def test_flows_conserve_commercial_inflow(self):
        scenario, state = self.build()
        ledger = settle(state, scenario, Ledgers())
        out = ledger.transactions
        flows = company_flows(out)
        net = sum(fin - fout for fin, fout in flows.values())
        commercial_total = sum(t.amount for t in out if t.kind == COMMERCIAL)
        assert net == pytest.approx(commercial_total, rel=1e-12)
        assert ledger.market == pytest.approx(commercial_total, rel=1e-12)
        assert ledger.inflows == tuple(
            flows.get(c, (0.0, 0.0))[0] for c in state.companies()
        )
        assert ledger.rows == tuple(
            tuple((t.sender, t.receiver) for t in out if t.kind == kind)
            for kind in (COMMERCIAL, ROYALTY, TRANSFER)
        )

    def test_internal_transfers_cancel(self):
        scenario, state = self.build()
        out = settle(state, scenario, Ledgers()).transactions
        flows = company_flows(out)
        for t in out:
            if t.kind != COMMERCIAL:
                assert t.sender in flows and t.receiver in flows


# ------------------------------------------------------------- validation


class TestScenarioValidation:
    def test_rate_outside_unit_interval(self):
        with pytest.raises(EconomyError, match="royalty_rate"):
            make_scenario(royalty_rate=1.5)

    def test_haven_with_revenue_rejected(self):
        with pytest.raises(EconomyError, match="haven"):
            make_scenario(revenue_table={"m1": 100.0, "h1": 5.0})

    def test_revenue_for_unknown_country(self):
        with pytest.raises(EconomyError, match="undeclared"):
            make_scenario(revenue_table={"zz": 1.0})

    def test_negative_revenue(self):
        with pytest.raises(EconomyError, match="negative"):
            make_scenario(revenue_table={"m1": -1.0})

    @pytest.mark.parametrize("cost", [0.0, -1.0, float("nan"), float("inf")])
    def test_action_cost_finite_and_positive(self, cost):
        with pytest.raises(EconomyError, match="action_cost"):
            make_scenario(action_cost=cost)
