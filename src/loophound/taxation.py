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
bound to the filing company.  A reduction rule checks itself when it is
built: its kind is valid, its condition uses known predicates at their
arity, wildcards only in negated literals and constant transaction kinds
among ``commercial``, ``royalty`` and ``transfer``, it mentions ``Self``, and
a deductible leaves the rate, an exemption the base, as it is.  It raises one
:class:`~loophound.kernel.KernelError` naming every problem found.

A state is evaluated in one pass (:func:`evaluate_state`): it is settled
once, its company flows are summed once, and assessment and profit both
read them.  Each rule's condition is projected once per state onto the
companies it holds for, giving company -> positions of the applicable
rules, in rule order (:func:`applicability_map`); each return reads only
its company's rules, through the one :func:`assess` path.

Settling and assessing are pure, and a search meets the same inputs many
times over (a bench-shape search of the bundled corpus, seed 7, settles
17,936 states into 3,600 distinct ledgers and files 70,732 returns, 1,053
of them distinct), so each search keeps one :class:`EvaluationMemo` and
computes each distinct input once.  A ledger is keyed on exactly what
settling reads (:func:`economy.ledger_key`); a return on its company,
residence country, the positions of its applicable reductions and its
base, with the rates fixed for the search.  Applicability is not
memoized: its input is the whole state with its ledger, and almost every
state a search evaluates is new.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

from . import economy  # settle is looked up per call, where tracing can wrap it
from .economy import ScenarioConfig, Transaction, company_flows
from .join import CompiledCondition
from .kernel import Condition, KernelError, Literal, State, condition_problems

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
    # condition compiled to project the companies it holds for
    join: CompiledCondition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        problems: list[str] = []
        if self.kind not in REDUCTION_KINDS:
            problems.append(f"reduction kind must be one of {REDUCTION_KINDS}")
        problems += condition_problems(self.condition, transactions=True)
        if not any(SELF_VAR in item.variables() for item in self.condition):
            problems.append(f"condition must mention the filing company {SELF_VAR}")
        if self.kind == DEDUCTIBLE and not self.new_rate.is_rate_identity():
            problems.append(
                "a deductible may only rewrite the base (new_rate must stay Rate)"
            )
        if self.kind == EXEMPTION and not self.new_base.is_base_identity():
            problems.append(
                "an exemption may only rewrite the rate (new_base must stay Base)"
            )
        if problems:
            raise KernelError(f"{self.kind}/{self.legal_ref}: " + "; ".join(problems))
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
            CompiledCondition(condition, project=(SELF_VAR,)),
        )

    def key(self) -> tuple[str, str]:
        return (self.kind, self.legal_ref)


TaxRateTable = Mapping[str, float]


class TaxAssessment(NamedTuple):
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


def residence_countries(state: State) -> dict[str, str]:
    """Company -> residence country: management seat wins over country of
    incorporation.  Raises if an existing company is resident nowhere."""
    residence = dict(state.rows("based"))
    residence.update(state.rows("managed"))
    for company in state.companies():
        if company not in residence:
            raise TaxationError(f"company {company!r} is resident nowhere")
    return residence


def transaction_patterns(
    transactions: Sequence[Transaction],
) -> list[tuple[str, str, str]]:
    """Ground (kind, sender, receiver) triples for condition matching."""
    return [(t.kind, t.sender, t.receiver) for t in transactions]


def applicability_map(
    state: State,
    patterns: Mapping[str, Sequence[tuple[str, ...]]],
    reductions: Sequence[ReductionRule],
) -> dict[str, tuple[int, ...]]:
    """Company -> the positions in ``reductions`` of the rules applicable to
    it, in rule order.  Each rule's condition is projected once onto the
    companies it holds for."""
    out: dict[str, tuple[int, ...]] = {}
    for position, rule in enumerate(reductions):
        for company in rule.join.project(state, SELF_VAR, patterns):
            out[company] = out.get(company, ()) + (position,)
    return out


def applicable_reductions(
    company: str,
    base: float,
    rate: float,
    rules: Sequence[ReductionRule],
) -> list[tuple[ReductionRule, float, float]]:
    """Admissible (rule, new_base, new_rate) candidates for one return, in rule order.

    ``rules`` are the reductions applicable to ``company`` (at the positions
    of its entry in :func:`applicability_map`).  A candidate is rejected (with a log warning)
    when its evaluated new base is negative, its new rate leaves [0, 1], or
    it would increase the tax due.  :func:`evaluate_state` assesses each
    distinct return once per search, so a rejection is logged once per
    distinct return, not once per state.
    """
    out: list[tuple[ReductionRule, float, float]] = []
    for rule in rules:
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
    rules: Sequence[ReductionRule],
    rates: TaxRateTable,
    flows: Mapping[str, tuple[float, float]],
) -> TaxAssessment:
    """One company's return: ``rules`` are the reductions applicable to it
    (their positions are its entry in :func:`applicability_map`), ``flows``
    the settled transactions' ``company_flows``."""
    if country not in rates:
        raise TaxationError(f"no statutory rate for country {country!r}")
    base, _ = flows.get(company, (0.0, 0.0))
    rate = float(rates[country])

    candidates = applicable_reductions(company, base, rate, rules)
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
        company,
        country,
        base,
        rate,
        reduced_base,
        reduced_rate,
        applied_reduction,
        applied_exemption,
        reduced_base * reduced_rate,
    )


def net_profit(
    flows: Mapping[str, tuple[float, float]],
    assessments: Sequence[TaxAssessment],
) -> float:
    """Group-wide profit: company inflows minus outflows minus taxes.

    ``flows`` are the settled transactions' ``company_flows``.  Intra-group
    payments cancel, so this equals market inflows minus total tax; both
    are accumulated in one fixed order (sorted companies, then assessment
    order) to keep float results reproducible.
    """
    total = 0.0
    for company in sorted(flows):
        fin, fout = flows[company]
        total += fin - fout
    for a in assessments:
        total -= a.tax_due
    return total


class EvaluationMemo:
    """The ledgers and returns one search has computed, for its one
    scenario, sequence of reductions and rate table.

    ``ledgers`` maps :func:`economy.ledger_key` to a settled ledger (see
    :func:`economy.settle`).  ``returns`` maps (company, residence country,
    positions of its applicable reductions, base) to its
    :class:`TaxAssessment`: everything :func:`assess` reads but the rates.
    """

    __slots__ = ("ledgers", "returns")

    def __init__(self) -> None:
        self.ledgers: dict[tuple, tuple[Transaction, ...]] = {}
        self.returns: dict[tuple, TaxAssessment] = {}


def evaluate_state(
    state: State,
    scenario: ScenarioConfig,
    reductions: Sequence[ReductionRule],
    rates: TaxRateTable,
    memo: EvaluationMemo,
    actions: Sequence = (),
) -> tuple[tuple[Transaction, ...], list[TaxAssessment], float]:
    """Full economic evaluation of one state, in one pass: transactions,
    assessments (one per existing company, in sorted company order), profit.

    The state is settled once and its company flows are summed once;
    assessment and profit both read them.  ``memo`` holds the ledgers and
    returns already computed under the same scenario, reductions and rates;
    only the ones it lacks are computed, and added to it.
    """
    transactions = economy.settle(state, scenario, actions, memo.ledgers)
    flows = company_flows(transactions)
    patterns = {"transaction": transaction_patterns(transactions)}
    applicable = applicability_map(state, patterns, reductions)
    residence = residence_countries(state)
    returns = memo.returns
    assessments = []
    for company in state.companies():
        country = residence[company]
        positions = applicable.get(company, ())
        key = (company, country, positions, flows.get(company, (0.0, 0.0))[0])
        assessment = returns.get(key)
        if assessment is None:
            rules = [reductions[i] for i in positions]
            assessment = returns[key] = assess(company, country, rules, rates, flows)
        assessments.append(assessment)
    return transactions, assessments, net_profit(flows, assessments)
