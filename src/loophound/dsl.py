"""Parser, validator and pretty-printer for the ``.lhl`` rule language.

The language is line-oriented with ``#`` comments and two layers of syntax:
simple dot-terminated statements and block statements for rules.

Simple statements::

    company p.                      # declare an existing company
    ip ip1.                         # declare an IP asset
    fact based(p, usa).             # ground fact of the initial state
    rate usa 0.35.                  # statutory tax rate (ruleset documents)
    country usa revenue 700.        # market revenue (scenario documents)
    country bermuda haven.          # tax haven, no commercial market
    pool c1 c2 c3.                  # unused company ids, consumed in order
    set royalty_rate 0.9.           # scenario parameter

Block statements::

    action addChild(Parent, fresh Child, Country) ref "EU-incorp" {
      pre: exists(Parent), Country != usa, Country != bermuda;
      eff: exists(Child), based(Child, Country), isChildOf(Child, Parent);
    }

    reduction "2003/49/EC" kind deductible {
      when: based(Self, C), transaction(royalty, Self, R);
      new_base: 0.1 * Base;
    }

Conditions are conjunctions of positive literals, negated literals (``not``)
and ``==`` / ``!=`` comparisons.  Identifiers starting with an uppercase
letter are variables; ``_`` is an anonymous wildcard (negated literals only).
In ``eff:`` a ``not`` prefix marks a fact deletion.  ``new_base``/``new_rate``
are linear expressions over ``Base``, ``Rate`` and number literals; a
``deductible`` rule may only rewrite the base, an ``exemption`` only the rate.

Parsing is total: any input produces either a document or at least one error
diagnostic, never an exception.  The pretty-printer emits a canonical layout
whose re-parse is structurally equal to the original document (comments and
source positions are not preserved).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import kernel
from .economy import EconomyError, ScenarioConfig
from .kernel import (
    ACTION_NAMES,
    PREDICATES,
    WILDCARD,
    ActionRule,
    Comparison,
    Condition,
    Fact,
    Literal,
    is_variable,
)
from .taxation import (
    BASE_IDENTITY,
    RATE_IDENTITY,
    REDUCTION_KINDS,
    SELF_VAR,
    LinExpr,
    ReductionRule,
)

SCENARIO_PARAMS = ("royalty_rate", "transfer_price", "action_cost")


# ============================================================================
# Diagnostics and results
# ============================================================================


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    """Document plus diagnostics; ``document is None`` iff an error occurred."""

    document: Optional[object]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.document is not None

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


# ============================================================================
# Documents
# ============================================================================


@dataclass(frozen=True, eq=True)
class RuleSetDoc:
    action_rules: tuple[ActionRule, ...]
    reduction_rules: tuple[ReductionRule, ...]
    rate_table: tuple[tuple[str, float], ...]  # sorted (country, rate) pairs

    def rates(self) -> dict[str, float]:
        return dict(self.rate_table)

    @property
    def source_spans(self) -> dict[tuple[str, str], tuple[int, int]]:
        spans: dict[tuple[str, str], tuple[int, int]] = {}
        for r in self.action_rules:
            spans[r.key()] = r.span
        for r in self.reduction_rules:
            spans[r.key()] = r.span
        return spans


@dataclass(frozen=True, eq=True)
class StateSpec:
    companies: tuple[str, ...]
    ips: tuple[str, ...]
    facts: tuple[Fact, ...]  # exactly the listed facts, deduplicated


@dataclass(frozen=True, eq=True)
class ScenarioDoc:
    state: StateSpec
    scenario: ScenarioConfig


# ============================================================================
# Lexer
# ============================================================================

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>==|!=|[(){},;.:*+-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    type: str  # ident | number | string | op | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diagnostics.append(
                Diagnostic("error", f"unexpected character {text[pos]!r}", line, col)
            )
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            if kind == "string":
                tokens.append(Token("string", value[1:-1], line, col))
            else:
                tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens, diagnostics


# ============================================================================
# Parser
# ============================================================================


@dataclass
class _RawStatements:
    companies: list[tuple[str, Token]]
    ips: list[tuple[str, Token]]
    facts: list[tuple[str, list[str], Token]]
    rates: list[tuple[str, float, Token]]
    countries: list[tuple[str, Optional[float], Token]]  # revenue None => haven
    pools: list[tuple[list[str], Token]]
    params: list[tuple[str, float, Token]]
    actions: list[ActionRule]
    reductions: list[ReductionRule]


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.diagnostics = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------ utils

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def check(self, type_: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (value is None or tok.value == value)

    def accept(self, type_: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(type_, value):
            return self.advance()
        return None

    def expect(self, type_: str, value: Optional[str] = None, what: str = "") -> Token:
        if self.check(type_, value):
            return self.advance()
        tok = self.peek()
        expected = what or (value if value is not None else type_)
        raise _SyntaxError(f"expected {expected}, found {tok.value or tok.type!r}", tok)

    def error(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic("error", message, tok.line, tok.col))

    def recover(self) -> None:
        """Skip to just past the next '.' or '}' (panic-mode recovery)."""
        depth = 0
        while not self.check("eof"):
            tok = self.advance()
            if tok.type == "op":
                if tok.value == "{":
                    depth += 1
                elif tok.value == "}":
                    if depth <= 1:
                        return
                    depth -= 1
                elif tok.value == "." and depth == 0:
                    return

    # ------------------------------------------------------------- statements

    def parse_document(self) -> _RawStatements:
        raw = _RawStatements([], [], [], [], [], [], [], [], [])
        while not self.check("eof"):
            try:
                self.statement(raw)
            except _SyntaxError as exc:
                self.error(exc.message, exc.token)
                self.recover()
        return raw

    def statement(self, raw: _RawStatements) -> None:
        tok = self.peek()
        if tok.type != "ident":
            raise _SyntaxError(f"expected a statement, found {tok.value!r}", tok)
        keyword = tok.value
        if keyword == "company":
            self.advance()
            name = self.expect("ident", what="company id")
            self.expect("op", ".")
            raw.companies.append((name.value, name))
        elif keyword == "ip":
            self.advance()
            name = self.expect("ident", what="ip id")
            self.expect("op", ".")
            raw.ips.append((name.value, name))
        elif keyword == "fact":
            self.advance()
            pred = self.expect("ident", what="predicate name")
            args = self.parse_term_list()
            self.expect("op", ".")
            raw.facts.append((pred.value, args, pred))
        elif keyword == "rate":
            self.advance()
            country = self.expect("ident", what="country id")
            value = self.expect("number", what="rate value")
            self.expect("op", ".")
            raw.rates.append((country.value, float(value.value), country))
        elif keyword == "country":
            self.advance()
            name = self.expect("ident", what="country id")
            if self.accept("ident", "haven"):
                revenue: Optional[float] = None
            else:
                self.expect("ident", "revenue")
                revenue = float(self.expect("number", what="revenue amount").value)
            self.expect("op", ".")
            raw.countries.append((name.value, revenue, name))
        elif keyword == "pool":
            self.advance()
            ids = [self.expect("ident", what="company id").value]
            while self.check("ident"):
                ids.append(self.advance().value)
            self.expect("op", ".")
            raw.pools.append((ids, tok))
        elif keyword == "set":
            self.advance()
            name = self.expect("ident", what="parameter name")
            value = self.expect("number", what="parameter value")
            self.expect("op", ".")
            raw.params.append((name.value, float(value.value), name))
        elif keyword in ("action", "reduction"):
            # building a rule compiles its condition; one that cannot compile
            # (a check on an unbound variable) is reported instead of kept
            try:
                if keyword == "action":
                    raw.actions.append(self.parse_action())
                else:
                    raw.reductions.append(self.parse_reduction())
            except kernel.KernelError as exc:
                self.error(f"{keyword}: {exc}", tok)
        else:
            raise _SyntaxError(f"unknown statement keyword {keyword!r}", tok)

    # ------------------------------------------------------------------ rules

    def parse_action(self) -> ActionRule:
        start = self.expect("ident", "action")
        name = self.expect("ident", what="action name")
        self.expect("op", "(")
        params: list[str] = []
        fresh: set[str] = set()
        if not self.check("op", ")"):
            while True:
                if self.accept("ident", "fresh"):
                    p = self.expect("ident", what="parameter")
                    fresh.add(p.value)
                else:
                    p = self.expect("ident", what="parameter")
                if not is_variable(p.value):
                    raise _SyntaxError(
                        f"parameter {p.value!r} must start with an uppercase letter", p
                    )
                params.append(p.value)
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        self.expect("ident", "ref")
        ref = self.expect("string", what="legal reference string")
        self.expect("op", "{")
        self.expect("ident", "pre")
        self.expect("op", ":")
        precondition = self.parse_condition()
        self.expect("op", ";")
        self.expect("ident", "eff")
        self.expect("op", ":")
        adds, dels = self.parse_effects()
        self.expect("op", ";")
        self.expect("op", "}")
        return ActionRule(
            name=name.value,
            legal_ref=ref.value,
            params=tuple(params),
            fresh_params=frozenset(fresh),
            precondition=precondition,
            add_effects=tuple(adds),
            del_effects=tuple(dels),
            span=(start.line, start.col),
        )

    def parse_reduction(self) -> ReductionRule:
        start = self.expect("ident", "reduction")
        ref = self.expect("string", what="legal reference string")
        self.expect("ident", "kind")
        kind = self.expect("ident", what="deductible or exemption")
        if kind.value not in REDUCTION_KINDS:
            raise _SyntaxError(
                f"reduction kind must be one of {REDUCTION_KINDS}, "
                f"found {kind.value!r}",
                kind,
            )
        self.expect("op", "{")
        self.expect("ident", "when")
        self.expect("op", ":")
        condition = self.parse_condition()
        self.expect("op", ";")
        new_base, new_rate = BASE_IDENTITY, RATE_IDENTITY
        while self.check("ident", "new_base") or self.check("ident", "new_rate"):
            which = self.advance()
            self.expect("op", ":")
            expr = self.parse_linexpr()
            self.expect("op", ";")
            if which.value == "new_base":
                new_base = expr
            else:
                new_rate = expr
        self.expect("op", "}")
        return ReductionRule(
            legal_ref=ref.value,
            kind=kind.value,
            condition=condition,
            new_base=new_base,
            new_rate=new_rate,
            span=(start.line, start.col),
        )

    # ------------------------------------------------------ condition/effects

    def parse_term_list(self) -> list[str]:
        self.expect("op", "(")
        terms: list[str] = []
        if not self.check("op", ")"):
            while True:
                tok = self.peek()
                if tok.type == "ident":
                    terms.append(self.advance().value)
                elif tok.type == "number":
                    terms.append(self.advance().value)
                else:
                    raise _SyntaxError(f"expected a term, found {tok.value!r}", tok)
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return terms

    def parse_condition(self) -> Condition:
        items: list = []
        while True:
            items.append(self.parse_condition_item())
            if not self.accept("op", ","):
                break
        return tuple(items)

    def parse_condition_item(self):
        if self.accept("ident", "not"):
            pred = self.expect("ident", what="predicate name")
            args = self.parse_term_list()
            return Literal(pred.value, tuple(args), negated=True)
        first = self.peek()
        if first.type not in ("ident", "number"):
            raise _SyntaxError(
                f"expected a literal or comparison, found {first.value!r}", first
            )
        head = self.advance()
        if self.check("op", "("):
            args = self.parse_term_list()
            return Literal(head.value, tuple(args), negated=False)
        op = self.peek()
        if op.type == "op" and op.value in ("==", "!="):
            self.advance()
            right = self.peek()
            if right.type not in ("ident", "number"):
                raise _SyntaxError(
                    f"expected a term after {op.value}, found {right.value!r}", right
                )
            self.advance()
            return Comparison(head.value, op.value, right.value)
        raise _SyntaxError(
            f"expected '(' or a comparison operator after {head.value!r}", op
        )

    def parse_effects(self) -> tuple[list[Literal], list[Literal]]:
        adds: list[Literal] = []
        dels: list[Literal] = []
        while True:
            negated = bool(self.accept("ident", "not"))
            pred = self.expect("ident", what="predicate name")
            args = self.parse_term_list()
            lit = Literal(pred.value, tuple(args), negated=False)
            (dels if negated else adds).append(lit)
            if not self.accept("op", ","):
                break
        return adds, dels

    # ------------------------------------------------------------ expressions

    def parse_linexpr(self) -> LinExpr:
        base, rate, const = 0.0, 0.0, 0.0
        sign = 1.0
        first = True
        while True:
            if not first:
                if self.accept("op", "+"):
                    sign = 1.0
                elif self.accept("op", "-"):
                    sign = -1.0
                else:
                    break
            elif self.accept("op", "-"):
                sign = -1.0
            first = False
            b, r, c = self.parse_linterm()
            base += sign * b
            rate += sign * r
            const += sign * c
        return LinExpr(base_coef=base, rate_coef=rate, const=const)

    def parse_linterm(self) -> tuple[float, float, float]:
        tok = self.peek()
        if tok.type == "number":
            self.advance()
            coef = float(tok.value)
            if self.accept("op", "*"):
                sym = self.expect("ident", what="Base or Rate")
                return self.symbol_term(sym, coef)
            return (0.0, 0.0, coef)
        if tok.type == "ident":
            self.advance()
            coef = 1.0
            if self.accept("op", "*"):
                num = self.expect("number", what="a number coefficient")
                coef = float(num.value)
            return self.symbol_term(tok, coef)
        raise _SyntaxError(f"expected an expression term, found {tok.value!r}", tok)

    def symbol_term(self, sym: Token, coef: float) -> tuple[float, float, float]:
        if sym.value == "Base":
            return (coef, 0.0, 0.0)
        if sym.value == "Rate":
            return (0.0, coef, 0.0)
        raise _SyntaxError(
            f"only Base and Rate may appear in expressions, found {sym.value!r}", sym
        )


class _SyntaxError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(message)
        self.message = message
        self.token = token


# ============================================================================
# Validation
# ============================================================================

_RULESET_ONLY = "this statement belongs in a ruleset document"
_SCENARIO_ONLY = "this statement belongs in a scenario or state document"


def _validate_condition(
    cond: Condition,
    diagnostics: list[Diagnostic],
    span: tuple[int, int],
    allow_transaction: bool,
    context: str,
) -> None:
    # negation safety is enforced when the rule is built: a condition that
    # checks a variable nothing binds does not compile, and parsing reports it
    line, col = span
    for item in cond:
        if isinstance(item, Literal):
            if item.predicate == kernel.TRANSACTION_PRED:
                if not allow_transaction:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"{context}: transaction patterns are only allowed "
                            "in reduction conditions",
                            line,
                            col,
                        )
                    )
                elif len(item.args) != 3:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"{context}: transaction pattern takes "
                            "(kind, sender, receiver)",
                            line,
                            col,
                        )
                    )
            elif item.predicate not in PREDICATES:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"{context}: unknown predicate {item.predicate!r}",
                        line,
                        col,
                    )
                )
            elif len(item.args) != len(PREDICATES[item.predicate]):
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"{context}: {item.predicate} expects "
                        f"{len(PREDICATES[item.predicate])} argument(s)",
                        line,
                        col,
                    )
                )
            if not item.negated and any(a == WILDCARD for a in item.args):
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"{context}: wildcards are only allowed in negated literals",
                        line,
                        col,
                    )
                )


def _validate_action(rule: ActionRule, diagnostics: list[Diagnostic]) -> None:
    line, col = rule.span
    context = f"action {rule.name}/{rule.legal_ref}"
    if rule.name not in ACTION_NAMES:
        diagnostics.append(
            Diagnostic(
                "error",
                f"{context}: action name must be one of {ACTION_NAMES}",
                line,
                col,
            )
        )
    if len(set(rule.params)) != len(rule.params):
        diagnostics.append(
            Diagnostic("error", f"{context}: duplicate parameter names", line, col)
        )
    if len(rule.fresh_params) > 1:
        diagnostics.append(
            Diagnostic(
                "error", f"{context}: at most one fresh parameter is allowed", line, col
            )
        )
    _validate_condition(
        rule.precondition,
        diagnostics,
        rule.span,
        allow_transaction=False,
        context=context,
    )
    bound = set(rule.params)
    for item in rule.precondition:
        if isinstance(item, Literal) and not item.negated:
            bound.update(item.variables())
    for lit in rule.add_effects + rule.del_effects:
        if lit.predicate not in PREDICATES:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"{context}: unknown predicate {lit.predicate!r} in effects",
                    line,
                    col,
                )
            )
            continue
        if len(lit.args) != len(PREDICATES[lit.predicate]):
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"{context}: {lit.predicate} expects "
                    f"{len(PREDICATES[lit.predicate])} argument(s) in effects",
                    line,
                    col,
                )
            )
        for a in lit.args:
            if a == WILDCARD:
                diagnostics.append(
                    Diagnostic(
                        "error", f"{context}: wildcard in effect literal", line, col
                    )
                )
            elif is_variable(a) and a not in bound:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"{context}: effect variable {a!r} is not bound by "
                        "parameters or preconditions",
                        line,
                        col,
                    )
                )
    try:
        rule.inferred_types()
    except kernel.KernelError as exc:
        diagnostics.append(Diagnostic("error", f"{context}: {exc}", line, col))


def _validate_reduction(rule: ReductionRule, diagnostics: list[Diagnostic]) -> None:
    line, col = rule.span
    context = f"reduction {rule.kind}/{rule.legal_ref}"
    _validate_condition(
        rule.condition,
        diagnostics,
        rule.span,
        allow_transaction=True,
        context=context,
    )
    mentions_self = any(
        SELF_VAR in item.variables() for item in rule.condition
    )
    if not mentions_self:
        diagnostics.append(
            Diagnostic(
                "error",
                f"{context}: condition must mention the filing company Self",
                line,
                col,
            )
        )
    if rule.kind == "deductible" and not rule.new_rate.is_rate_identity():
        diagnostics.append(
            Diagnostic(
                "error",
                f"{context}: a deductible may only rewrite the base "
                "(new_rate must stay Rate)",
                line,
                col,
            )
        )
    if rule.kind == "exemption" and not rule.new_base.is_base_identity():
        diagnostics.append(
            Diagnostic(
                "error",
                f"{context}: an exemption may only rewrite the rate "
                "(new_base must stay Base)",
                line,
                col,
            )
        )


# ============================================================================
# Entry points
# ============================================================================


def _reject(
    raw: _RawStatements,
    diagnostics: list[Diagnostic],
    kinds: Sequence[tuple[str, Sequence]],
) -> None:
    for label, items in kinds:
        for item in items:
            tok = item[-1] if isinstance(item, tuple) else None
            line, col = (tok.line, tok.col) if isinstance(tok, Token) else (
                getattr(item, "span", (0, 0))
            )
            diagnostics.append(
                Diagnostic("error", f"{label} statement not allowed here", line, col)
            )


def parse_ruleset(text: str) -> ParseResult:
    """Parse a ruleset document: action rules, reduction rules, rate table."""
    parser = _Parser(text)
    raw = parser.parse_document()
    diagnostics = parser.diagnostics
    _reject(
        raw,
        diagnostics,
        [
            ("company", raw.companies),
            ("ip", raw.ips),
            ("fact", raw.facts),
            ("country", raw.countries),
            ("pool", raw.pools),
            ("set", raw.params),
        ],
    )

    rate_table: dict[str, float] = {}
    for country, value, tok in raw.rates:
        if not 0.0 <= value <= 1.0:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"rate for {country!r} outside [0, 1]: {value:g}",
                    tok.line,
                    tok.col,
                )
            )
        if country in rate_table:
            diagnostics.append(
                Diagnostic(
                    "error", f"duplicate rate for {country!r}", tok.line, tok.col
                )
            )
        rate_table[country] = value

    seen_keys: set[tuple[str, str]] = set()
    for rule in list(raw.actions) + list(raw.reductions):
        key = rule.key()
        if key in seen_keys:
            line, col = rule.span
            diagnostics.append(
                Diagnostic("error", f"duplicate rule {key}", line, col)
            )
        seen_keys.add(key)
    for rule in raw.actions:
        _validate_action(rule, diagnostics)
    for rule in raw.reductions:
        _validate_reduction(rule, diagnostics)

    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, tuple(diagnostics))
    doc = RuleSetDoc(
        action_rules=tuple(raw.actions),
        reduction_rules=tuple(raw.reductions),
        rate_table=tuple(sorted(rate_table.items())),
    )
    return ParseResult(doc, tuple(diagnostics))


def _build_state_spec(
    raw: _RawStatements, diagnostics: list[Diagnostic], countries: set[str]
) -> Optional[StateSpec]:
    companies: list[str] = []
    for name, tok in raw.companies:
        if name in companies:
            diagnostics.append(
                Diagnostic(
                    "warning", f"company {name!r} declared twice", tok.line, tok.col
                )
            )
        else:
            companies.append(name)
    ips: list[str] = []
    for name, tok in raw.ips:
        if name in ips:
            diagnostics.append(
                Diagnostic("warning", f"ip {name!r} declared twice", tok.line, tok.col)
            )
        else:
            ips.append(name)

    facts: list[Fact] = []
    for pred, args, tok in raw.facts:
        try:
            fact = kernel.make_fact(pred, args)
        except kernel.KernelError as exc:
            diagnostics.append(Diagnostic("error", str(exc), tok.line, tok.col))
            continue
        for arg, ty in zip(fact.args, PREDICATES[fact.predicate]):
            known = (
                arg in companies
                if ty == "company"
                else arg in ips
                if ty == "ip"
                else (not countries or arg in countries)
            )
            if not known:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"fact references undeclared {ty} {arg!r}",
                        tok.line,
                        tok.col,
                    )
                )
        if fact in facts:
            diagnostics.append(
                Diagnostic("warning", f"duplicate fact {fact}", tok.line, tok.col)
            )
        else:
            facts.append(fact)
    if any(d.severity == "error" for d in diagnostics):
        return None
    return StateSpec(
        companies=tuple(companies), ips=tuple(ips), facts=tuple(facts)
    )


def parse_state_spec(text: str) -> ParseResult:
    """Parse a plain state document: company/ip declarations and facts."""
    parser = _Parser(text)
    raw = parser.parse_document()
    diagnostics = parser.diagnostics
    _reject(
        raw,
        diagnostics,
        [
            ("rate", raw.rates),
            ("country", raw.countries),
            ("pool", raw.pools),
            ("set", raw.params),
            ("action", raw.actions),
            ("reduction", raw.reductions),
        ],
    )
    spec = _build_state_spec(raw, diagnostics, countries=set())
    if spec is None or any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, tuple(diagnostics))
    return ParseResult(spec, tuple(diagnostics))


def parse_scenario(text: str) -> ParseResult:
    """Parse a scenario document: state spec plus markets, pool and parameters."""
    parser = _Parser(text)
    raw = parser.parse_document()
    diagnostics = parser.diagnostics
    _reject(
        raw,
        diagnostics,
        [("rate", raw.rates), ("action", raw.actions), ("reduction", raw.reductions)],
    )

    countries: list[str] = []
    revenue: dict[str, float] = {}
    havens: set[str] = set()
    for name, rev, tok in raw.countries:
        if name in countries:
            diagnostics.append(
                Diagnostic("error", f"country {name!r} declared twice", tok.line, tok.col)
            )
            continue
        countries.append(name)
        if rev is None:
            havens.add(name)
        else:
            revenue[name] = rev
    if not countries:
        diagnostics.append(
            Diagnostic("error", "a scenario needs at least one country statement", 1, 1)
        )

    pool: list[str] = []
    for ids, tok in raw.pools:
        pool.extend(ids)
    params = {name: value for name, value, _ in raw.params}
    for name, value, tok in raw.params:
        if name not in SCENARIO_PARAMS:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"unknown scenario parameter {name!r} "
                    f"(expected one of {SCENARIO_PARAMS})",
                    tok.line,
                    tok.col,
                )
            )

    spec = _build_state_spec(raw, diagnostics, countries=set(countries))
    if spec is not None:
        for cid in pool:
            if cid in spec.companies:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"pool id {cid!r} is already a declared company",
                        1,
                        1,
                    )
                )
    if spec is None or any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, tuple(diagnostics))

    try:
        scenario = ScenarioConfig(
            countries=tuple(countries),
            revenue_table=revenue,
            tax_havens=frozenset(havens),
            company_pool=tuple(pool),
            royalty_rate=params.get("royalty_rate", 0.9),
            transfer_price=params.get("transfer_price", 50.0),
            action_cost=params.get("action_cost", 1.0),
            declared_companies=spec.companies,
            declared_ips=spec.ips,
        )
    except EconomyError as exc:
        diagnostics.append(Diagnostic("error", str(exc), 1, 1))
        return ParseResult(None, tuple(diagnostics))
    return ParseResult(ScenarioDoc(state=spec, scenario=scenario), tuple(diagnostics))


def merge_rulesets(docs: Sequence[RuleSetDoc]) -> ParseResult:
    """Merge corpora: later files override rates and append rules.

    A duplicate (name, legal ref) or (kind, legal ref) key across files is an
    error.
    """
    diagnostics: list[Diagnostic] = []
    actions: list[ActionRule] = []
    reductions: list[ReductionRule] = []
    rates: dict[str, float] = {}
    seen: set[tuple[str, str]] = set()
    for doc in docs:
        for rule in doc.action_rules:
            if rule.key() in seen:
                diagnostics.append(
                    Diagnostic(
                        "error", f"duplicate rule {rule.key()} across files", *rule.span
                    )
                )
            seen.add(rule.key())
            actions.append(rule)
        for rule in doc.reduction_rules:
            if rule.key() in seen:
                diagnostics.append(
                    Diagnostic(
                        "error", f"duplicate rule {rule.key()} across files", *rule.span
                    )
                )
            seen.add(rule.key())
            reductions.append(rule)
        rates.update(dict(doc.rate_table))
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, tuple(diagnostics))
    merged = RuleSetDoc(
        action_rules=tuple(actions),
        reduction_rules=tuple(reductions),
        rate_table=tuple(sorted(rates.items())),
    )
    return ParseResult(merged, tuple(diagnostics))


# ============================================================================
# Pretty-printer
# ============================================================================


def _render_condition(cond: Condition) -> str:
    return ", ".join(str(item) for item in cond)


def _render_action(rule: ActionRule) -> str:
    params = ", ".join(
        f"fresh {p}" if p in rule.fresh_params else p for p in rule.params
    )
    effects = [str(lit) for lit in rule.add_effects]
    effects += [f"not {lit}" for lit in rule.del_effects]
    return (
        f'action {rule.name}({params}) ref "{rule.legal_ref}" {{\n'
        f"  pre: {_render_condition(rule.precondition)};\n"
        f"  eff: {', '.join(effects)};\n"
        f"}}"
    )


def _render_reduction(rule: ReductionRule) -> str:
    lines = [
        f'reduction "{rule.legal_ref}" kind {rule.kind} {{',
        f"  when: {_render_condition(rule.condition)};",
    ]
    if not rule.new_base.is_base_identity():
        lines.append(f"  new_base: {rule.new_base.render()};")
    if not rule.new_rate.is_rate_identity():
        lines.append(f"  new_rate: {rule.new_rate.render()};")
    lines.append("}")
    return "\n".join(lines)


def render_ruleset(doc: RuleSetDoc) -> str:
    """Canonical ruleset text; re-parsing yields a structurally equal document."""
    chunks = ["# ruleset"]
    if doc.rate_table:
        chunks.append(
            "\n".join(f"rate {c} {v:g}." for c, v in doc.rate_table)
        )
    for rule in doc.action_rules:
        chunks.append(_render_action(rule))
    for rule in doc.reduction_rules:
        chunks.append(_render_reduction(rule))
    return "\n\n".join(chunks) + "\n"


def render_state_spec(spec: StateSpec) -> str:
    """Canonical state text; always starts with the declarations header."""
    chunks = ["# state"]
    decls = [f"company {c}." for c in spec.companies]
    decls += [f"ip {i}." for i in spec.ips]
    if decls:
        chunks.append("\n".join(decls))
    if spec.facts:
        chunks.append("\n".join(f"fact {f}." for f in spec.facts))
    return "\n\n".join(chunks) + "\n"


def render_scenario(doc: ScenarioDoc) -> str:
    sc = doc.scenario
    lines = []
    for c in sc.countries:
        if c in sc.tax_havens:
            lines.append(f"country {c} haven.")
        else:
            lines.append(f"country {c} revenue {sc.revenue_table.get(c, 0):g}.")
    if sc.company_pool:
        lines.append(f"pool {' '.join(sc.company_pool)}.")
    lines.append(f"set royalty_rate {sc.royalty_rate:g}.")
    lines.append(f"set transfer_price {sc.transfer_price:g}.")
    lines.append(f"set action_cost {sc.action_cost:g}.")
    spec = doc.state
    decls = [f"company {c}." for c in spec.companies]
    decls += [f"ip {i}." for i in spec.ips]
    facts = [f"fact {f}." for f in spec.facts]
    chunks = ["# scenario", "\n".join(lines)]
    if decls:
        chunks.append("\n".join(decls))
    if facts:
        chunks.append("\n".join(facts))
    return "\n\n".join(chunks) + "\n"
