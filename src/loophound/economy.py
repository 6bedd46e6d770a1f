"""Stylized economy: commercial revenue, recursive royalties, IP transfer payment.

Money is denominated in millions of dollars.  A company generates commercial
revenue in a country when it is based there, the country is not a tax haven,
and the company owns or rents the IP.  Each licensing edge obliges the renter
to forward ``royalty_rate`` times its commercial revenue plus the royalties it
collects from its own sub-licensees of the same IP, so royalty amounts are
evaluated bottom-up along the licensing graph of each IP, which the state
invariants keep acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .kernel import TRANSACTION_KINDS, State

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


def _residence_free_index(state: State) -> dict[str, str]:
    return {args[0]: args[1] for args in state.index["based"]}


def _has_ip_access(state: State, company: str) -> bool:
    for args in state.index["ownsIP"]:
        if args[0] == company:
            return True
    for args in state.index["rentsIP"]:
        if args[1] == company:
            return True
    return False


def earning_companies(state: State, scenario: ScenarioConfig) -> list[tuple[str, str]]:
    """Sorted (company, country) pairs with commercial revenue in ``state``."""
    based = _residence_free_index(state)
    out = []
    for company in state.companies():
        country = based.get(company)
        if country is None or country in scenario.tax_havens:
            continue
        if country not in scenario.revenue_table:
            continue
        if _has_ip_access(state, company):
            out.append((company, country))
    return sorted(out)


def is_multinationally_complete(state: State, scenario: ScenarioConfig) -> bool:
    """True iff every non-haven country hosts a revenue-generating company."""
    covered = {country for _, country in earning_companies(state, scenario)}
    return all(c in covered for c in scenario.non_haven_countries())


def commercial_transactions(
    state: State, scenario: ScenarioConfig, time: int = 0
) -> list[Transaction]:
    """Market -> company revenue, one transaction per earning (company, country)."""
    out = []
    for company, country in earning_companies(state, scenario):
        out.append(
            Transaction(
                id=-1,
                time=time,
                kind=COMMERCIAL,
                sender=country,
                receiver=company,
                amount=float(scenario.revenue_table[country]),
            )
        )
    return out


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
    keep float results reproducible.
    """
    edges = state.index["rentsIP"]  # sorted, like every index group
    commercial_by_company: dict[str, float] = {}
    for t in commercial:
        commercial_by_company[t.receiver] = (
            commercial_by_company.get(t.receiver, 0.0) + t.amount
        )

    # (licensor, ip) -> renters, in sorted order: the sub-licensees of c for
    # an ip are the renters on the edges where c licenses that ip
    sub_licensees: dict[tuple[str, str], list[str]] = {}
    for licensor, renter, ip in edges:
        sub_licensees.setdefault((licensor, ip), []).append(renter)

    payment: dict[tuple[str, str, str], float] = {}

    def royalty_out(renter: str, ip: str, licensor: str) -> float:
        key = (licensor, renter, ip)
        if key in payment:
            return payment[key]
        received = 0.0
        for sub in sub_licensees.get((renter, ip), ()):
            received += royalty_out(sub, ip, renter)
        base = commercial_by_company.get(renter, 0.0) + received
        amount = scenario.royalty_rate * base
        payment[key] = amount
        return amount

    out = []
    for licensor, renter, ip in edges:
        amount = royalty_out(renter, ip, licensor)
        out.append(
            Transaction(
                id=-1,
                time=time,
                kind=ROYALTY,
                sender=renter,
                receiver=licensor,
                amount=amount,
            )
        )
    return out


def transfer_transaction(
    actions: Sequence,  # sequence of GroundedAction
    scenario: ScenarioConfig,
) -> Optional[Transaction]:
    """Payment for the one-shot IP transfer: the new owner pays the old owner."""
    for step, action in enumerate(actions):
        if action.name == "transferIP":
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
                id=-1,
                time=step + 1,
                kind=TRANSFER,
                sender=sender,
                receiver=receiver,
                amount=float(scenario.transfer_price),
            )
    return None


def settle(
    state: State,
    scenario: ScenarioConfig,
    actions: Sequence = (),
) -> list[Transaction]:
    """All transactions implied by ``state``: commercial, royalties, transfer.

    Ids are assigned sequentially in the listed order, making the transaction
    list a pure function of the state (plus the transfer step index taken from
    the action history).
    """
    time = state.step_count
    commercial = commercial_transactions(state, scenario, time=time)
    royalties = royalty_transactions(state, scenario, commercial, time=time)
    transfer = transfer_transaction(actions, scenario)
    ordered = commercial + royalties + ([transfer] if transfer else [])
    return [t._replace(id=i) for i, t in enumerate(ordered)]


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
