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
transaction once, with its ledger id.  Everything else about the state's
money reads that ledger: :func:`company_flows` sums it once per state, and
:func:`is_multinationally_complete` reads its commercial senders.

Many states share a ledger: facts :func:`settle` never reads, such as
``isChildOf`` and ``managed``, leave it as it is.  :func:`ledger_key` is
exactly what it reads (the ``exists``, ``based``, ``ownsIP`` and
``rentsIP`` facts, the step count, and the step and action of the first
``transferIP``).  A search hands :func:`settle` the ledgers it has settled,
by key, and each key is settled once; the key is defined here, next to the
code that reads those inputs, so no other module has to know them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .kernel import TRANSACTION_KINDS, GroundedAction, State

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

    def non_haven_countries(self) -> tuple[str, ...]:
        return tuple(c for c in self.countries if c not in self.tax_havens)


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
        country = based.get(company)
        if country is None or country in scenario.tax_havens:
            continue
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
    return all(c in covered for c in scenario.non_haven_countries())


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


def _first_transfer(
    actions: Sequence[GroundedAction],
) -> Optional[tuple[int, GroundedAction]]:
    """(step, action) of the first ``transferIP`` in ``actions``, or None."""
    for step, action in enumerate(actions):
        if action.name == "transferIP":
            return step, action
    return None


def transfer_transaction(
    actions: Sequence,  # sequence of GroundedAction
    scenario: ScenarioConfig,
    tid: int = -1,
) -> Optional[Transaction]:
    """Payment for the one-shot IP transfer: the new owner pays the old owner.

    ``tid`` is its id in the ledger (-1 outside one).
    """
    first = _first_transfer(actions)
    if first is None:
        return None
    step, action = first
    binding = action.as_dict()
    sender = receiver = None
    # the bundled rule names its params From/To; fall back to effect
    # conventions if a custom rule renames them
    for var, value in binding.items():
        low = var.lower()
        if low in ("to", "buyer", "newowner"):
            sender = value
        elif low in ("from", "seller", "oldowner"):
            receiver = value
    if sender is None or receiver is None:
        ordered = [v for _, v in sorted(binding.items())]
        if len(ordered) < 2:
            raise EconomyError(f"cannot identify transfer parties in {action}")
        receiver, sender = ordered[0], ordered[1]
    return Transaction(
        id=tid,
        time=step + 1,
        kind=TRANSFER,
        sender=sender,
        receiver=receiver,
        amount=float(scenario.transfer_price),
    )


def ledger_key(state: State, actions: Sequence[GroundedAction]) -> tuple:
    """Everything :func:`settle` reads of ``state`` and its path ``actions``:
    the ``exists``, ``based``, ``ownsIP`` and ``rentsIP`` facts, the step
    count, and the step and action of the first ``transferIP``.  States with
    equal keys have equal ledgers under one scenario."""
    return (
        state.rows("exists"),
        state.rows("based"),
        state.rows("ownsIP"),
        state.rows("rentsIP"),
        state.step_count,
        _first_transfer(actions),
    )


def settle(
    state: State,
    scenario: ScenarioConfig,
    actions: Sequence = (),
    ledgers: Optional[dict[tuple, tuple[Transaction, ...]]] = None,
) -> tuple[Transaction, ...]:
    """All transactions implied by ``state``: commercial, royalties, transfer.

    Ids are sequential in the listed order, each given when its transaction is
    built, making the transaction list a pure function of the state (plus the
    transfer step index taken from the action history).

    ``ledgers``, when given, maps :func:`ledger_key` to the ledgers already
    settled under ``scenario``: a key found there returns its ledger, and a
    ledger settled anew is added to it.
    """
    if ledgers is None:
        return _settle(state, scenario, actions)
    key = ledger_key(state, actions)
    ledger = ledgers.get(key)
    if ledger is None:
        ledger = ledgers[key] = _settle(state, scenario, actions)
    return ledger


def _settle(
    state: State, scenario: ScenarioConfig, actions: Sequence
) -> tuple[Transaction, ...]:
    time = state.step_count
    ledger = commercial_transactions(state, scenario, time=time)
    ledger += royalty_transactions(state, scenario, ledger, time=time)
    transfer = transfer_transaction(actions, scenario, tid=len(ledger))
    if transfer is not None:
        ledger.append(transfer)
    return tuple(ledger)


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
