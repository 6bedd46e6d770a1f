"""Stylized economy: commercial revenue, recursive royalties, IP transfer payment.

Money is denominated in millions of dollars.  A company generates commercial
revenue in a country when it is based there, the country is not a tax haven,
and the company owns or rents the IP.  Each licensing edge obliges the renter
to forward ``royalty_rate`` times its commercial revenue plus the royalties it
collects from its own sub-licensees of the same IP, so royalty amounts are
evaluated bottom-up along the licensing graph of each IP, which the state
invariants keep acyclic.

A state is settled in one pass: :func:`settle` finds the earning companies
once, from one set of the companies with IP access, and builds each
transaction once, with its ledger id.  The IP sale is the state's own
:class:`~loophound.kernel.Transfer`: the step of the path's ``transferIP``
and its parties, read off the rule's ``ownsIP`` effects, never off its
parameter names.

The result is a :class:`Ledger`: the transactions and, computed with them,
everything evaluating a state reads of its money: each existing company's
inflow (its tax base), the market sum (inflows minus outflows over the
sorted companies, the profit before tax), whether the state is
multinationally complete, and the (sender, receiver) pairs of each
transaction kind, which reduction conditions match.  A state that meets a
settled ledger again reads all of that back without a pass over its
transactions.

Many states share a ledger: facts :func:`settle` never reads, such as
``isChildOf`` and ``managed``, leave it as it is.  :func:`settle` has one
path: its caller hands it a :class:`Ledgers`, keyed on exactly what
settling reads (the ``exists``, ``based``, ``ownsIP`` and ``rentsIP``
groups, the step count and the sale), and each key is settled once.  A
search keeps one for all its states.  The same table makes
equal transactions, inflow tuples and rows one object across the search's
ledgers: in the bench-shape search of the bundled corpus (seed 7, 50 x 60)
its 3,600 ledgers hold 15,377 transactions, 1,129 of them distinct.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .kernel import GROUP, TRANSACTION_KINDS, State

COMMERCIAL, ROYALTY, TRANSFER = TRANSACTION_KINDS


class EconomyError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """Countries, markets and economic parameters of one scenario."""

    countries: tuple[str, ...]
    revenue_table: dict[str, float]  # per (company, country) commercial revenue
    tax_havens: frozenset[str]
    company_pool: tuple[str, ...]  # unused company ids, consumed in order
    royalty_rate: float = 0.9
    transfer_price: float = 50.0
    action_cost: float = 1.0
    declared_companies: tuple[str, ...] = ()
    declared_ips: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.royalty_rate <= 1.0:
            raise EconomyError(f"royalty_rate outside [0, 1]: {self.royalty_rate}")
        # the search charges it per action, and a utility must be finite
        if not 0.0 < self.action_cost < math.inf:
            raise EconomyError(f"action_cost outside (0, inf): {self.action_cost}")
        for country, amount in self.revenue_table.items():
            if country not in self.countries:
                raise EconomyError(f"revenue for undeclared country {country!r}")
            if amount < 0:
                raise EconomyError(f"negative revenue for {country!r}")
        for h in self.tax_havens:
            if h not in self.countries:
                raise EconomyError(f"haven {h!r} is not a declared country")
            if h in self.revenue_table:
                raise EconomyError(f"haven {h!r} must not carry commercial revenue")


class Transaction(NamedTuple):
    id: int
    time: int  # action step index; commercial flows settle at the final step
    kind: str  # commercial | royalty | transfer
    sender: str  # company id, or country id for market revenue
    receiver: str
    amount: float


def earning_companies(state: State, scenario: ScenarioConfig) -> list[tuple[str, str]]:
    """Sorted (company, country) pairs with commercial revenue in ``state``."""
    based = dict(state.rows("based"))
    access = {owner for owner, _ in state.rows("ownsIP")}
    access.update(renter for _, renter, _ in state.rows("rentsIP"))
    out = []
    for company in state.companies():  # sorted, one country each
        # no haven is a key of revenue_table, nor None (based nowhere)
        country = based.get(company)
        if country in scenario.revenue_table and company in access:
            out.append((company, country))
    return out


def is_multinationally_complete(
    transactions: Sequence[Transaction], scenario: ScenarioConfig
) -> bool:
    """True iff every non-haven country hosts a revenue-generating company.

    ``transactions`` is the state's :func:`settle` ledger: its commercial
    transactions are sent by exactly the countries that host one.
    """
    covered = {t.sender for t in transactions if t.kind == COMMERCIAL}
    covered.update(scenario.tax_havens)
    return covered.issuperset(scenario.countries)


def commercial_transactions(
    state: State, scenario: ScenarioConfig, time: int = 0
) -> list[Transaction]:
    """Market -> company revenue, one transaction per earning (company, country).

    Ids count from 0, as the commercial part opens the settled ledger.
    """
    return [
        Transaction(
            id=i,
            time=time,
            kind=COMMERCIAL,
            sender=country,
            receiver=company,
            amount=float(scenario.revenue_table[country]),
        )
        for i, (company, country) in enumerate(earning_companies(state, scenario))
    ]


def _royalty_out(
    licensor: str,
    renter: str,
    ip: str,
    rate: float,
    revenue: dict[str, float],
    sub_licensees: dict[tuple[str, str], list[str]],
    payment: dict[tuple[str, str, str], float],
) -> float:
    """The renter's payment on edge rentsIP(licensor, renter, ip), memoized in
    ``payment``.  A module function, not a closure: a recursive closure would
    form a reference cycle on every call."""
    key = (licensor, renter, ip)
    amount = payment.get(key)
    if amount is None:
        received = 0.0
        for sub in sub_licensees.get((renter, ip), ()):
            received += _royalty_out(
                renter, sub, ip, rate, revenue, sub_licensees, payment
            )
        amount = payment[key] = rate * (revenue.get(renter, 0.0) + received)
    return amount


def royalty_transactions(
    state: State,
    scenario: ScenarioConfig,
    commercial: Sequence[Transaction],
    time: int = 0,
) -> list[Transaction]:
    """One royalty payment per licensing edge, evaluated bottom-up.

    For edge rentsIP(licensor, renter, ip) the renter pays
    ``rate * (own commercial revenue + royalties received from sub-licensees)``,
    where the sub-licensees are the renter's licensees of the same ip.  The
    licensing graph of each ip is acyclic by state invariant, so the
    recursion is well-founded; sums are accumulated in sorted edge order to
    keep float results reproducible.  Ids follow the commercial ones.
    """
    edges = state.rows("rentsIP")  # sorted, like every group
    revenue: dict[str, float] = {}
    for t in commercial:
        revenue[t.receiver] = revenue.get(t.receiver, 0.0) + t.amount

    # (licensor, ip) -> renters, in sorted order: the sub-licensees of c for
    # an ip are the renters on the edges where c licenses that ip
    sub_licensees: dict[tuple[str, str], list[str]] = {}
    for licensor, renter, ip in edges:
        sub_licensees.setdefault((licensor, ip), []).append(renter)

    payment: dict[tuple[str, str, str], float] = {}
    rate = scenario.royalty_rate
    return [
        Transaction(
            id=i,
            time=time,
            kind=ROYALTY,
            sender=renter,
            receiver=licensor,
            amount=_royalty_out(
                licensor, renter, ip, rate, revenue, sub_licensees, payment
            ),
        )
        for i, (licensor, renter, ip) in enumerate(edges, start=len(commercial))
    ]


class Ledger(NamedTuple):
    """A settled ledger and what evaluating a state reads of it, computed
    once, when the ledger is settled."""

    transactions: tuple[Transaction, ...]
    # per existing company, in the state's sorted company order
    inflows: tuple[float, ...]
    # inflows minus outflows summed over the sorted companies: intra-group
    # payments cancel, so this is the market revenue, as the profit adds it
    market: float
    complete: bool  # see is_multinationally_complete
    # per kind of TRANSACTION_KINDS, the (sender, receiver) pairs of its
    # transactions in ledger order: what reduction conditions match
    rows: tuple[tuple[tuple[str, str], ...], ...]


class Ledgers(dict):
    """One search's settled ledgers by key (see :func:`settle`), and
    ``shared``, the table that makes its equal transactions, inflow tuples
    and rows one object across all its ledgers.

    Sharing records that hold floats is safe here, though equality merges
    ``0.0`` with ``-0.0``: an amount is its market's revenue, the transfer
    price, or the royalty rate times a sum that starts at ``0.0``, so equal
    transactions of one scenario carry the same zero, and an inflow, a sum
    that starts at ``0.0``, is never ``-0.0``.
    """

    __slots__ = ("shared",)

    def __init__(self) -> None:
        super().__init__()
        self.shared: dict[tuple, tuple] = {}


# the groups settle reads: exists, based, ownsIP and rentsIP
_SETTLED_GROUPS = operator.itemgetter(
    GROUP["exists"], GROUP["based"], GROUP["ownsIP"], GROUP["rentsIP"]
)


def settle(state: State, scenario: ScenarioConfig, ledgers: Ledgers) -> Ledger:
    """The :class:`Ledger` of ``state``: commercial revenue, royalties, then
    the payment for the state's IP sale (``state.transfer``).

    Ids are sequential in the listed order, each given when its transaction
    is built, making the ledger a pure function of the state.  ``ledgers``
    holds the ledgers already settled under ``scenario``, keyed on exactly
    what settling reads: the ``exists``, ``based``, ``ownsIP`` and
    ``rentsIP`` groups, the step count and the sale.  A key found there
    returns its ledger; a ledger settled anew is added to it.  A caller
    that settles one state alone passes a fresh :class:`Ledgers`.
    """
    key = (_SETTLED_GROUPS(state.groups), state.step_count, state.transfer)
    ledger = ledgers.get(key)
    if ledger is None:
        ledger = ledgers[key] = _settle(state, scenario, ledgers.shared)
    return ledger


def _settle(state: State, scenario: ScenarioConfig, shared: dict) -> Ledger:
    time = state.step_count
    commercial = commercial_transactions(state, scenario, time=time)
    royalties = royalty_transactions(state, scenario, commercial, time=time)
    sales = []
    transfer = state.transfer
    if transfer is not None:
        # the new owner pays the old one, at the step after the sale
        sales.append(
            Transaction(
                id=len(commercial) + len(royalties),
                time=transfer.step + 1,
                kind=TRANSFER,
                sender=transfer.buyer,
                receiver=transfer.seller,
                amount=float(scenario.transfer_price),
            )
        )
    share = shared.setdefault
    rows = []
    for part in (commercial, royalties, sales):  # TRANSACTION_KINDS order
        pairs = [(t.sender, t.receiver) for t in part]
        pairs = tuple([share(pair, pair) for pair in pairs])
        rows.append(share(pairs, pairs))
    transactions = tuple([share(t, t) for t in commercial + royalties + sales])
    flows = company_flows(transactions)
    market = 0.0
    for company in sorted(flows):
        fin, fout = flows[company]
        market += fin - fout
    inflows = [flows.get(company, (0.0, 0.0))[0] for company in state.companies()]
    inflows = tuple(inflows)
    rows_by_kind = tuple(rows)
    return Ledger(
        transactions,
        share(inflows, inflows),
        market,
        is_multinationally_complete(transactions, scenario),
        share(rows_by_kind, rows_by_kind),
    )


def company_flows(
    transactions: Sequence[Transaction],
) -> dict[str, tuple[float, float]]:
    """Company -> (inflow, outflow) sums, accumulated in transaction order."""
    flows: dict[str, tuple[float, float]] = {}
    for t in transactions:
        if t.kind != COMMERCIAL:
            fin, fout = flows.get(t.sender, (0.0, 0.0))
            flows[t.sender] = (fin, fout + t.amount)
        fin, fout = flows.get(t.receiver, (0.0, 0.0))
        flows[t.receiver] = (fin + t.amount, fout)
    return flows
