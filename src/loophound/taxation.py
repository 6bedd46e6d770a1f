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

A state is evaluated in one pass (:func:`evaluate_state`), from the state
alone: it carries the IP sale on its path.  Its
:class:`~loophound.economy.Ledger` is settled once per search and carries
what assessment and profit read: each company's inflow, which is its base,
the market sum, the completeness flag and the transaction rows by kind.
The search compiles all its reductions into one generated function
(:func:`loophound.join.compile_projection`) that maps each company to the
positions of the rules applicable to it, in rule order
(:func:`applicability_map`); each return reads only its company's rules,
through the one :func:`assess` path, and the profit is the market sum minus
each tax due, in assessment order.

Settling and assessing are pure, and a search meets the same inputs many
times over (the bench-shape search of the bundled corpus, seed 7, 50 x 60,
evaluates 17,962 states over 3,600 distinct ledgers and files 70,836
returns, 1,053 of them distinct), so each search keeps one
:class:`EvaluationMemo` and computes each distinct ledger and return once.
Applicability is not memoized: it reads the ``based``, ``managed`` and
``isChildOf`` groups as well as the ledger, and almost every state a search
evaluates is new, so a table keyed on them would hold about one entry per
state the search evaluates.  The generated function makes each evaluation
cheap instead: it binds each relation once for all rules, and skips a rule
whose positive literal ranges over an empty relation, as every corpus
reduction does on a ledger with no royalty (37% of those evaluations).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

from . import economy  # settle is looked up per call, where tracing can wrap it
from .economy import Ledger, Ledgers, ScenarioConfig
from .kernel import GROUP, Condition, KernelError, Literal, State, condition_problems

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
    # the condition as it is matched: Self ranges over the existing companies
    # when no positive literal binds it
    query: Condition = field(init=False, repr=False, compare=False)

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
        # join is loaded where a condition compiles: stages that only read
        # recorded returns load this module without it
        from .join import compile_projection

        compile_projection((condition,), SELF_VAR)  # raises on a bad condition
        object.__setattr__(self, "query", condition)

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

_BASED, _MANAGED, _EXISTS = GROUP["based"], GROUP["managed"], GROUP["exists"]


def residence_countries(state: State) -> dict[str, str]:
    """Company -> residence country: management seat wins over country of
    incorporation.  Raises if an existing company is resident nowhere."""
    groups = state.groups
    residence = dict(groups[_BASED])
    residence.update(groups[_MANAGED])
    for (company,) in groups[_EXISTS]:
        if company not in residence:
            raise TaxationError(f"company {company!r} is resident nowhere")
    return residence


def applicability_map(
    state: State, ledger: Ledger, memo: EvaluationMemo
) -> dict[str, tuple[int, ...]]:
    """Company -> the positions in ``memo.reductions`` of the rules
    applicable to it in ``state`` with its ``ledger``, in rule order: one
    call of the memo's generated function (see
    :func:`loophound.join.compile_projection`)."""
    return memo.applicable(state.groups, ledger.rows)


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
    base: float,
    rules: Sequence[ReductionRule],
    rates: TaxRateTable,
) -> TaxAssessment:
    """One company's return: ``base`` is its inflow in the settled ledger,
    ``rules`` the reductions applicable to it (their positions are its
    entry in :func:`applicability_map`)."""
    if country not in rates:
        raise TaxationError(f"no statutory rate for country {country!r}")
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


class EvaluationMemo:
    """What one search evaluates with, and what it has computed: its one
    scenario, sequence of reductions and rate table; ``applicable``, the
    function generated from those reductions (see :func:`applicability_map`);
    its ledgers and returns.

    ``ledgers`` maps what settling reads to the
    :class:`~loophound.economy.Ledger` settled from it (see
    :func:`economy.settle`): its transactions, each company's inflow, the
    market sum, the completeness flag and the rows by transaction kind, all
    computed once, on a miss.  ``returns`` maps (company, residence country,
    positions of its applicable reductions, base) to its
    :class:`TaxAssessment`: everything :func:`assess` reads but the rates.
    Applicability has no table: its input is the state's groups with the
    ledger, new for almost every evaluation (see the module docstring).
    """

    __slots__ = ("scenario", "reductions", "rates", "applicable", "ledgers", "returns")

    def __init__(
        self,
        scenario: ScenarioConfig,
        reductions: Sequence[ReductionRule],
        rates: TaxRateTable,
    ) -> None:
        from .join import compile_projection

        self.scenario = scenario
        self.reductions = tuple(reductions)
        self.rates = rates
        self.applicable = compile_projection(
            [rule.query for rule in self.reductions], SELF_VAR
        )
        self.ledgers = Ledgers()
        self.returns: dict[tuple, TaxAssessment] = {}


def evaluate_state(
    state: State, memo: EvaluationMemo
) -> tuple[Ledger, list[TaxAssessment], float]:
    """Full economic evaluation of one state, the IP sale it carries
    included, in one pass: its ledger, its assessments (one per existing
    company, in sorted company order) and its profit.

    The ledger comes from ``memo`` when it was settled before; the
    applicable reductions are found anew, and each return is assessed once
    per memo.  The profit is the ledger's market sum minus each tax due, in
    assessment order.
    """
    ledger = economy.settle(state, memo.scenario, memo.ledgers)
    applicable = applicability_map(state, ledger, memo)
    residence = residence_countries(state)
    returns = memo.returns
    assessments = []
    profit = ledger.market
    for (company,), base in zip(state.groups[_EXISTS], ledger.inflows):
        country = residence[company]
        positions = applicable.get(company, ())
        key = (company, country, positions, base)
        assessment = returns.get(key)
        if assessment is None:
            rules = [memo.reductions[i] for i in positions]
            assessment = returns[key] = assess(
                company, country, base, rules, memo.rates
            )
        assessments.append(assessment)
        profit -= assessment.tax_due
    return ledger, assessments, profit
