"""Per-company taxation with legal-reference reductions.

Each existing company files one return in its residence country: management
seat if any, country of incorporation otherwise.  The statutory position is
``base = total inflows`` at the statutory ``rate`` of the residence country.
Reduction rules then adjust the return in two steps: check a condition
against the state and the transaction list, then rewrite base or rate with a
linear expression.

Reductions come in two kinds matching their fiscal role: ``deductible`` rules
rewrite the base, ``exemption`` rules rewrite the rate.  The best admissible
rule of each kind is applied (rational filing: minimize tax due, ties broken
by lexicographic legal reference), and a rule is only recorded when it
strictly improves its channel.  ``tax_due = reduced_base * reduced_rate``.

The condition language is the kernel's, extended with transaction patterns
``transaction(kind, sender, receiver)``; the reserved variable ``Self`` is
bound to the filing company.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .economy import ScenarioConfig, Transaction, company_flows
from .join import CompiledCondition
from .kernel import Condition, Literal, State

log = logging.getLogger(__name__)

SELF_VAR = "Self"
DEDUCTIBLE = "deductible"
EXEMPTION = "exemption"
REDUCTION_KINDS = (DEDUCTIBLE, EXEMPTION)


class TaxationError(Exception):
    pass


# ============================================================================
# Linear expressions over (Base, Rate)
# ============================================================================


@dataclass(frozen=True)
class LinExpr:
    """Canonical linear form ``base_coef*Base + rate_coef*Rate + const``."""

    base_coef: float = 0.0
    rate_coef: float = 0.0
    const: float = 0.0

    def evaluate(self, base: float, rate: float) -> float:
        return self.base_coef * base + self.rate_coef * rate + self.const

    def is_base_identity(self) -> bool:
        return self == LinExpr(base_coef=1.0)

    def is_rate_identity(self) -> bool:
        return self == LinExpr(rate_coef=1.0)

    def render(self) -> str:
        parts: list[str] = []
        for coef, symbol in ((self.base_coef, "Base"), (self.rate_coef, "Rate")):
            if coef == 0.0:
                continue
            if coef == 1.0:
                parts.append(symbol)
            else:
                parts.append(f"{coef:g} * {symbol}")
        if self.const != 0.0 or not parts:
            parts.append(f"{self.const:g}")
        return " + ".join(parts)


BASE_IDENTITY = LinExpr(base_coef=1.0)
RATE_IDENTITY = LinExpr(rate_coef=1.0)


# ============================================================================
# Reduction rules
# ============================================================================


@dataclass(frozen=True)
class ReductionRule:
    legal_ref: str
    kind: str  # deductible | exemption
    condition: Condition
    new_base: LinExpr = BASE_IDENTITY
    new_rate: LinExpr = RATE_IDENTITY
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    # condition compiled to check one company (Self seeded) and to project
    # the companies it holds for
    join: CompiledCondition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        condition = self.condition
        if not any(
            isinstance(it, Literal) and not it.negated and SELF_VAR in it.args
            for it in condition
        ):
            # Self bound by no positive literal ranges over the existing companies
            condition = (Literal("exists", (SELF_VAR,)),) + condition
        object.__setattr__(
            self,
            "join",
            CompiledCondition(condition, bound=(SELF_VAR,), project=(SELF_VAR,)),
        )

    def key(self) -> tuple[str, str]:
        return (self.kind, self.legal_ref)


TaxRateTable = Mapping[str, float]


@dataclass(frozen=True)
class TaxAssessment:
    company: str
    country: str
    base: float  # statutory base: total inflows
    rate: float  # statutory rate of the residence country
    reduced_base: float
    reduced_rate: float
    applied_reduction: Optional[str]  # legal ref of the applied deductible
    applied_exemption: Optional[str]  # legal ref of the applied exemption
    tax_due: float

    def applied_refs(self) -> list[tuple[str, str]]:
        out = []
        if self.applied_reduction is not None:
            out.append((self.applied_reduction, DEDUCTIBLE))
        if self.applied_exemption is not None:
            out.append((self.applied_exemption, EXEMPTION))
        return out


# ============================================================================
# Residency and applicability
# ============================================================================


def residence_country(state: State, company: str) -> str:
    """Management seat wins over country of incorporation."""
    for args in state.index["managed"]:
        if args[0] == company:
            return args[1]
    for args in state.index["based"]:
        if args[0] == company:
            return args[1]
    raise TaxationError(f"company {company!r} is resident nowhere")


def transaction_patterns(
    transactions: Sequence[Transaction],
) -> list[tuple[str, str, str]]:
    """Ground (kind, sender, receiver) triples for condition matching."""
    return [(t.kind, t.sender, t.receiver) for t in transactions]


def applicability_map(
    state: State,
    patterns: Mapping[str, Sequence[tuple[str, ...]]],
    reductions: Sequence[ReductionRule],
) -> dict[tuple[str, str], frozenset[str]]:
    """Per-rule set of companies the rule is applicable to."""
    return {
        rule.key(): frozenset(rule.join.project(state, SELF_VAR, patterns))
        for rule in reductions
    }


def applicable_reductions(
    state: State,
    transactions: Sequence[Transaction],
    company: str,
    base: float,
    rate: float,
    reductions: Sequence[ReductionRule],
    patterns: Optional[Mapping[str, Sequence[tuple[str, ...]]]] = None,
    applicability: Optional[Mapping[tuple[str, str], frozenset[str]]] = None,
) -> list[tuple[ReductionRule, float, float]]:
    """Admissible (rule, new_base, new_rate) candidates for one return, in rule order.

    A candidate is rejected (with a log warning) when its evaluated new base
    is negative, its new rate leaves [0, 1], or it would increase the tax due.
    """
    if patterns is None:
        patterns = {"transaction": transaction_patterns(transactions)}
    out: list[tuple[ReductionRule, float, float]] = []
    for rule in reductions:
        if applicability is not None:
            if company not in applicability[rule.key()]:
                continue
        elif not rule.join.exists(state, {SELF_VAR: company}, patterns):
            continue
        new_base = rule.new_base.evaluate(base, rate)
        new_rate = rule.new_rate.evaluate(base, rate)
        if new_base < 0.0:
            log.warning(
                "reduction %s on %s rejected: negative new base %.6g",
                rule.legal_ref, company, new_base,
            )
            continue
        if not 0.0 <= new_rate <= 1.0:
            log.warning(
                "reduction %s on %s rejected: new rate %.6g outside [0, 1]",
                rule.legal_ref, company, new_rate,
            )
            continue
        if new_base > base or new_rate > rate:
            log.warning(
                "reduction %s on %s rejected: would increase the tax due",
                rule.legal_ref, company,
            )
            continue
        out.append((rule, new_base, new_rate))
    return out


def choose_reduction(
    candidates: Sequence[tuple[ReductionRule, float, float]],
) -> Optional[tuple[ReductionRule, float, float]]:
    """The candidate minimizing resulting tax; ties break on legal reference."""
    best: Optional[tuple[ReductionRule, float, float]] = None
    best_key: Optional[tuple[float, str]] = None
    for cand in candidates:
        rule, new_base, new_rate = cand
        key = (new_base * new_rate, rule.legal_ref)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


# ============================================================================
# Assessment
# ============================================================================


def assess(
    company: str,
    country: str,
    transactions: Sequence[Transaction],
    state: State,
    reductions: Sequence[ReductionRule],
    rates: TaxRateTable,
    flows: Optional[Mapping[str, tuple[float, float]]] = None,
    patterns: Optional[Mapping[str, Sequence[tuple[str, ...]]]] = None,
    applicability: Optional[Mapping[tuple[str, str], frozenset[str]]] = None,
) -> TaxAssessment:
    if country not in rates:
        raise TaxationError(f"no statutory rate for country {country!r}")
    if flows is None:
        flows = company_flows(transactions)
    base, _ = flows.get(company, (0.0, 0.0))
    rate = float(rates[country])

    candidates = applicable_reductions(
        state,
        transactions,
        company,
        base,
        rate,
        reductions,
        patterns=patterns,
        applicability=applicability,
    )
    best_deductible = choose_reduction(
        [c for c in candidates if c[0].kind == DEDUCTIBLE]
    )
    best_exemption = choose_reduction(
        [c for c in candidates if c[0].kind == EXEMPTION]
    )

    reduced_base, applied_reduction = base, None
    if best_deductible is not None and best_deductible[1] < base:
        reduced_base, applied_reduction = best_deductible[1], best_deductible[0].legal_ref
    reduced_rate, applied_exemption = rate, None
    if best_exemption is not None and best_exemption[2] < rate:
        reduced_rate, applied_exemption = best_exemption[2], best_exemption[0].legal_ref

    return TaxAssessment(
        company=company,
        country=country,
        base=base,
        rate=rate,
        reduced_base=reduced_base,
        reduced_rate=reduced_rate,
        applied_reduction=applied_reduction,
        applied_exemption=applied_exemption,
        tax_due=reduced_base * reduced_rate,
    )


def assess_all(
    state: State,
    transactions: Sequence[Transaction],
    reductions: Sequence[ReductionRule],
    rates: TaxRateTable,
) -> list[TaxAssessment]:
    """One assessment per existing company, in sorted company order."""
    flows = company_flows(transactions)
    patterns = {"transaction": transaction_patterns(transactions)}
    applicability = applicability_map(state, patterns, reductions)
    return [
        assess(
            company,
            residence_country(state, company),
            transactions,
            state,
            reductions,
            rates,
            flows=flows,
            patterns=patterns,
            applicability=applicability,
        )
        for company in state.companies()
    ]


def net_profit(
    transactions: Sequence[Transaction],
    assessments: Sequence[TaxAssessment],
) -> float:
    """Group-wide profit: company inflows minus outflows minus taxes.

    Intra-group payments cancel, so this equals market inflows minus total
    tax; both are accumulated in one fixed order (sorted companies, then
    assessment order) to keep float results reproducible.
    """
    flows = company_flows(transactions)
    total = 0.0
    for company in sorted(flows):
        fin, fout = flows[company]
        total += fin - fout
    for a in assessments:
        total -= a.tax_due
    return total


def evaluate_state(
    state: State,
    scenario: ScenarioConfig,
    reductions: Sequence[ReductionRule],
    rates: TaxRateTable,
    actions: Sequence = (),
) -> tuple[list[Transaction], list[TaxAssessment], float]:
    """Full economic evaluation of one state: transactions, assessments, profit."""
    from .economy import settle

    transactions = settle(state, scenario, actions)
    assessments = assess_all(state, transactions, reductions, rates)
    return transactions, assessments, net_profit(transactions, assessments)
