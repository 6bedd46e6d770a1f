"""Parser and pretty-printer for the ``.lhl`` rule language.

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

Each rule checks its own well-formedness when it is built (see
:class:`~loophound.kernel.ActionRule` and
:class:`~loophound.taxation.ReductionRule`); the parser reports the one error
of a malformed rule at the rule's first token.  The checks that span a
document stay here: which statements a document may hold, rates, duplicate
rule keys and declared entities; :func:`rate_problem` checks a ruleset
against a scenario.

Parsing is total: any input produces either a document or at least one error
diagnostic, never an exception.  The pretty-printer emits a canonical layout
whose re-parse is structurally equal to the original document (comments and
source positions are not preserved): every number is written as a literal
that reads back as the same float, and a negative term after the first as
``- x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import kernel
from .economy import EconomyError, ScenarioConfig
from .kernel import (
    PREDICATES,
    ActionRule,
    Comparison,
    Condition,
    Fact,
    Literal,
    is_variable,
)
from .taxation import BASE_IDENTITY, RATE_IDENTITY, LinExpr, ReductionRule

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


@dataclass(frozen=True, eq=True)
class StateSpec:
    companies: tuple[str, ...]
    ips: tuple[str, ...]
    facts: tuple[Fact, ...]  # exactly the listed facts, deduplicated


@dataclass(frozen=True, eq=True)
class ScenarioDoc:
    state: StateSpec
    scenario: ScenarioConfig


def rate_problem(ruleset: RuleSetDoc, scenario_doc: ScenarioDoc) -> Optional[str]:
    """The problem naming every scenario country that has no statutory rate
    in ``ruleset``, or None when each has one: a company may become resident
    in any scenario country, and its return needs that country's rate."""
    rates = ruleset.rates()
    missing = [c for c in scenario_doc.scenario.countries if c not in rates]
    if not missing:
        return None
    return "no statutory rate for scenario country " + ", ".join(map(repr, missing))


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


# the statements each document kind admits
_RULESET = frozenset({"rate", "action", "reduction"})
_STATE_SPEC = frozenset({"company", "ip", "fact"})
_SCENARIO = _STATE_SPEC | {"country", "pool", "set"}
_STATEMENTS = _RULESET | _SCENARIO


class _Parser:
    def __init__(self, text: str, admitted: Iterable[str]):
        self.tokens, self.diagnostics = tokenize(text)
        self.pos = 0
        self.admitted = frozenset(admitted)
        # each statement's entries in source order: a rule, a pool's ids, or
        # a tuple whose first item is the name after the keyword and whose
        # last is that name's (line, col); a pool id is such a tuple too
        self.statements: dict[str, list] = {keyword: [] for keyword in _STATEMENTS}

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

    def entity(self, what: str) -> Token:
        """The next token, an identifier naming an entity, which must be a
        constant, since states hold nothing else: a name that starts with an
        uppercase letter is a variable, and ``_`` the wildcard (see
        :func:`kernel.is_constant`).  One that is not is reported where it
        stands."""
        tok = self.expect("ident", what=what)
        if not kernel.is_constant(tok.value):
            self.error(f"{what} {tok.value!r} is not a constant", tok)
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic("error", message, tok.line, tok.col))

    def recover(self, start: int) -> None:
        """Skip the statement begun at token ``start`` (panic-mode recovery):
        to just past the '.' or '}' that ends it, or to the next statement
        keyword that is the first token of its line, so a block left open
        swallows no statement after it."""
        depth = 0
        while not self.check("eof"):
            tok = self.peek()
            if self.pos > start and tok.line > self.tokens[self.pos - 1].line:
                if tok.type == "ident" and tok.value in _STATEMENTS:
                    return
            self.advance()
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

    def parse_document(self) -> tuple[dict[str, list], list[Diagnostic]]:
        while not self.check("eof"):
            start = self.pos
            try:
                self.statement()
            except _SyntaxError as exc:
                self.error(exc.message, exc.token)
                self.recover(start)
        return self.statements, self.diagnostics

    def statement(self) -> None:
        tok = self.peek()
        if tok.type != "ident":
            raise _SyntaxError(f"expected a statement, found {tok.value!r}", tok)
        keyword = tok.value
        if keyword not in _STATEMENTS:
            raise _SyntaxError(f"unknown statement keyword {keyword!r}", tok)
        if keyword not in self.admitted:
            raise _SyntaxError(f"{keyword} statement not allowed here", tok)
        if keyword in ("action", "reduction"):
            # a rule checks itself when it is built; a malformed one is
            # reported at its first token instead of kept
            parse = self.parse_action if keyword == "action" else self.parse_reduction
            try:
                self.statements[keyword].append(parse())
            except kernel.KernelError as exc:
                self.error(f"{keyword}: {exc}", tok)
            return
        self.advance()
        if keyword in ("company", "ip"):
            name = self.entity(f"{keyword} id")
            entry = (name.value, (name.line, name.col))
        elif keyword == "fact":
            name = self.expect("ident", what="predicate name")
            entry = (name.value, self.parse_term_list(), (name.line, name.col))
        elif keyword == "rate":
            name = self.entity("country id")
            value = float(self.expect("number", what="rate value").value)
            entry = (name.value, value, (name.line, name.col))
        elif keyword == "country":
            name = self.entity("country id")
            if self.accept("ident", "haven"):
                revenue: Optional[float] = None
            else:
                self.expect("ident", "revenue")
                revenue = float(self.expect("number", what="revenue amount").value)
            entry = (name.value, revenue, (name.line, name.col))
        elif keyword == "pool":
            entry = []
            while not entry or self.check("ident"):
                cid = self.entity("company id")
                entry.append((cid.value, (cid.line, cid.col)))
        else:
            name = self.expect("ident", what="parameter name")
            value = float(self.expect("number", what="parameter value").value)
            entry = (name.value, value, (name.line, name.col))
        self.expect("op", ".")
        self.statements[keyword].append(entry)

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
# Entry points
# ============================================================================


def _result(diagnostics: list[Diagnostic], build: Callable[[], object]) -> ParseResult:
    """The document ``build`` returns, called only while no diagnostic is an
    error (it returns None after adding one), with the diagnostics in source
    order."""
    failed = any(d.severity == "error" for d in diagnostics)
    document = None if failed else build()
    return ParseResult(document, tuple(sorted(diagnostics, key=lambda d: (d.line, d.col))))


def _distinct(
    entries: Iterable[tuple], severity: str, message: str, diagnostics: list[Diagnostic]
) -> dict:
    """Each name's first entry, keyed by the name, in source order.  An entry
    is a tuple whose first item is a name and whose last is its (line, col);
    a later entry of the same name is reported there as
    ``message.format(name)``."""
    first: dict = {}
    for entry in entries:
        if entry[0] in first:
            diagnostics.append(Diagnostic(severity, message.format(entry[0]), *entry[-1]))
        else:
            first[entry[0]] = entry
    return first


def _check_rule_keys(
    rules: Iterable[ActionRule | ReductionRule], where: str, diagnostics: list[Diagnostic]
) -> None:
    """Report each rule whose key, (name, legal ref) or (kind, legal ref), an
    earlier rule holds."""
    keys = [(rule.key(), rule.span) for rule in rules]
    _distinct(keys, "error", "duplicate rule {}" + where, diagnostics)


def parse_ruleset(text: str, admitted: Iterable[str] = _RULESET) -> ParseResult:
    """Parse a ruleset document: action rules, reduction rules, rate table.
    ``admitted`` names the ruleset statements the text may hold, by default
    all three; any other statement is an error at its keyword."""
    statements, diagnostics = _Parser(text, admitted).parse_document()
    for country, value, pos in statements["rate"]:
        if not 0.0 <= value <= 1.0:
            diagnostics.append(
                Diagnostic("error", f"rate for {country!r} outside [0, 1]: {value:g}", *pos)
            )
    rates = _distinct(statements["rate"], "error", "duplicate rate for {!r}", diagnostics)
    actions, reductions = statements["action"], statements["reduction"]
    _check_rule_keys(actions + reductions, "", diagnostics)
    return _result(
        diagnostics,
        lambda: RuleSetDoc(
            action_rules=tuple(actions),
            reduction_rules=tuple(reductions),
            rate_table=tuple(sorted((c, v) for c, v, _ in rates.values())),
        ),
    )


def _build_state_spec(
    statements: dict[str, list],
    diagnostics: list[Diagnostic],
    countries: Iterable[str],
    scenario_state: StateSpec = StateSpec((), (), ()),
) -> tuple[StateSpec, list[tuple[int, int]]]:
    """The companies, ips and facts declared, each once, and each fact's
    (line, col).  A fact may name the companies and ips of
    ``scenario_state`` too; one about an undeclared entity is an error,
    about a country only when ``countries`` is not empty; so is a company or
    ip that ``scenario_state`` already declares, at its declaration."""
    companies = _distinct(
        statements["company"], "warning", "company {!r} declared twice", diagnostics
    )
    ips = _distinct(statements["ip"], "warning", "ip {!r} declared twice", diagnostics)
    taken = {"company": scenario_state.companies, "ip": scenario_state.ips}
    for keyword, names in taken.items():
        for name, pos in statements[keyword]:
            if name in names:
                diagnostics.append(
                    Diagnostic("error", f"{keyword} {name!r} already declared", *pos)
                )
    countries = set(countries)
    facts: list[tuple[Fact, tuple[int, int]]] = []
    for pred, args, pos in statements["fact"]:
        try:
            fact = kernel.make_fact(pred, args)
        except kernel.KernelError as exc:
            diagnostics.append(Diagnostic("error", str(exc), *pos))
            continue
        for arg, ty in zip(fact.args, PREDICATES[fact.predicate]):
            known = (
                arg in companies or arg in scenario_state.companies
                if ty == "company"
                else arg in ips or arg in scenario_state.ips
                if ty == "ip"
                else (not countries or arg in countries)
            )
            if not known:
                diagnostics.append(
                    Diagnostic("error", f"fact references undeclared {ty} {arg!r}", *pos)
                )
        facts.append((fact, pos))
    distinct_facts = _distinct(facts, "warning", "duplicate fact {}", diagnostics)
    spec = StateSpec(
        companies=tuple(companies), ips=tuple(ips), facts=tuple(distinct_facts)
    )
    return spec, [pos for _, pos in distinct_facts.values()]


def parse_state_spec(text: str, scenario: Optional[ScenarioDoc] = None) -> ParseResult:
    """Parse a plain state document: company/ip declarations and facts.
    Against a ``scenario`` its facts may name only the scenario's countries,
    and its companies and ips besides its own, and it may declare no company
    or ip the scenario declares.  Together with the scenario's state, or
    alone, it must be an initial state: each problem is reported at the
    document's statement."""
    statements, diagnostics = _Parser(text, _STATE_SPEC).parse_document()
    if scenario is None:  # no entity of its own, and any country
        scenario = ScenarioDoc(StateSpec((), (), ()), ScenarioConfig((), {}, frozenset(), ()))
    base, config = scenario.state, scenario.scenario
    spec, fact_positions = _build_state_spec(statements, diagnostics, config.countries, base)

    def document() -> Optional[StateSpec]:
        joint = StateSpec(
            base.companies + spec.companies, base.ips + spec.ips, base.facts + spec.facts
        )
        pool = [entry for entry in statements["company"] if entry[0] in config.company_pool]
        problems = _initial_state_problems(joint, fact_positions, statements["company"], pool)
        diagnostics.extend(problems)
        return None if problems else spec

    return _result(diagnostics, document)


def _initial_state_problems(
    spec: StateSpec,
    fact_positions: list[tuple[int, int]],
    companies: list[tuple],
    pool: list[tuple],
) -> list[Diagnostic]:
    """A pool id that is a declared company, a declared company resident
    nowhere, and a breach of the state invariants (see
    :mod:`loophound.kernel`), the last at the fact whose addition breaks
    one: facts can only add breaches, never mend one.  ``fact_positions``
    are those of the last facts of ``spec``; the facts before them hold
    together."""
    problems = [
        Diagnostic("error", f"pool id {cid!r} is already a declared company", *pos)
        for cid, pos in pool
        if cid in spec.companies
    ]
    resident = {f.args[0] for f in spec.facts if f.predicate in ("based", "managed")}
    for name, pos in companies:
        if name not in resident:
            resident.add(name)  # one diagnostic per company
            problems.append(
                Diagnostic(
                    "error",
                    f"company {name!r} is resident nowhere: "
                    "it needs a based or managed fact",
                    *pos,
                )
            )
    try:
        kernel.initial_state(spec.facts, spec.companies)
    except kernel.KernelError:
        held = len(spec.facts) - len(fact_positions)
        for end, pos in enumerate(fact_positions, held + 1):
            try:
                kernel.initial_state(spec.facts[:end], spec.companies)
            except kernel.KernelError as exc:
                problems.append(Diagnostic("error", f"initial state: {exc}", *pos))
                break
    return problems


def parse_scenario(text: str) -> ParseResult:
    """Parse a scenario document: state spec plus markets, pool and parameters."""
    statements, diagnostics = _Parser(text, _SCENARIO).parse_document()
    countries = _distinct(
        statements["country"], "error", "country {!r} declared twice", diagnostics
    )
    if not countries:
        diagnostics.append(
            Diagnostic("error", "a scenario needs at least one country statement", 1, 1)
        )
    for name, value, pos in statements["set"]:
        if name not in SCENARIO_PARAMS:
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"unknown scenario parameter {name!r} "
                    f"(expected one of {SCENARIO_PARAMS})",
                    *pos,
                )
            )
            continue
        try:  # the parameter's own range, as the economy checks it
            ScenarioConfig((), {}, frozenset(), (), **{name: value})
        except EconomyError as exc:
            diagnostics.append(Diagnostic("error", str(exc), *pos))
    sets = _distinct(statements["set"], "error", "parameter {!r} set twice", diagnostics)
    params = {name: value for name, value, _ in sets.values()}
    pool = [entry for ids in statements["pool"] for entry in ids]
    spec, fact_positions = _build_state_spec(statements, diagnostics, countries)

    def document() -> Optional[ScenarioDoc]:
        # checked only once every statement is sound: a fact in error would
        # leave its company resident nowhere as well
        problems = _initial_state_problems(
            spec, fact_positions, statements["company"], pool
        )
        if problems:
            diagnostics.extend(problems)
            return None
        scenario = ScenarioConfig(
            countries=tuple(countries),
            revenue_table={c: r for c, r, _ in countries.values() if r is not None},
            tax_havens=frozenset(c for c, r, _ in countries.values() if r is None),
            company_pool=tuple(cid for cid, _ in pool),
            royalty_rate=params.get("royalty_rate", 0.9),
            transfer_price=params.get("transfer_price", 50.0),
            action_cost=params.get("action_cost", 1.0),
            declared_companies=spec.companies,
            declared_ips=spec.ips,
        )
        return ScenarioDoc(state=spec, scenario=scenario)

    return _result(diagnostics, document)


def merge_rulesets(docs: Sequence[RuleSetDoc]) -> ParseResult:
    """Merge corpora: later files override rates and append rules.

    A duplicate (name, legal ref) or (kind, legal ref) key across files is an
    error.
    """
    diagnostics: list[Diagnostic] = []
    actions = [rule for doc in docs for rule in doc.action_rules]
    reductions = [rule for doc in docs for rule in doc.reduction_rules]
    _check_rule_keys(actions + reductions, " across files", diagnostics)
    rates: dict[str, float] = {}
    for doc in docs:
        rates.update(doc.rate_table)
    return _result(
        diagnostics,
        lambda: RuleSetDoc(
            action_rules=tuple(actions),
            reduction_rules=tuple(reductions),
            rate_table=tuple(sorted(rates.items())),
        ),
    )


# ============================================================================
# Pretty-printer
# ============================================================================


def _number(value: float) -> str:
    """``value`` as a number literal that parses back to it: ``:g`` where
    that is exact and has no exponent, else the shortest ``repr`` written
    out in positional form."""
    text = f"{value:g}"
    if "e" in text or float(text) != value:
        from decimal import Decimal  # imported on first use: most documents never need it

        text = format(Decimal(repr(value)), "f")
    return text


def _render_expr(expr: LinExpr) -> str:
    """``expr`` as the parser reads it: each nonzero term's magnitude after
    its sign, ``+`` or ``-``, and no ``+`` before the first term."""
    terms = [
        (coef, symbol if abs(coef) == 1.0 else f"{_number(abs(coef))} * {symbol}")
        for coef, symbol in ((expr.base_coef, "Base"), (expr.rate_coef, "Rate"))
        if coef != 0.0
    ]
    if expr.const != 0.0 or not terms:
        terms.append((expr.const, _number(abs(expr.const))))
    out = "".join(f" - {text}" if coef < 0 else f" + {text}" for coef, text in terms)
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


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
        lines.append(f"  new_base: {_render_expr(rule.new_base)};")
    if not rule.new_rate.is_rate_identity():
        lines.append(f"  new_rate: {_render_expr(rule.new_rate)};")
    lines.append("}")
    return "\n".join(lines)


def render_ruleset(doc: RuleSetDoc) -> str:
    """Canonical ruleset text; re-parsing yields a structurally equal document."""
    chunks = ["# ruleset"]
    if doc.rate_table:
        chunks.append(
            "\n".join(f"rate {c} {_number(v)}." for c, v in doc.rate_table)
        )
    for rule in doc.action_rules:
        chunks.append(_render_action(rule))
    for rule in doc.reduction_rules:
        chunks.append(_render_reduction(rule))
    return "\n\n".join(chunks) + "\n"


def render_scenario(doc: ScenarioDoc) -> str:
    sc = doc.scenario
    lines = []
    for c in sc.countries:
        if c in sc.tax_havens:
            lines.append(f"country {c} haven.")
        else:
            lines.append(f"country {c} revenue {_number(sc.revenue_table.get(c, 0))}.")
    if sc.company_pool:
        lines.append(f"pool {' '.join(sc.company_pool)}.")
    lines.append(f"set royalty_rate {_number(sc.royalty_rate)}.")
    lines.append(f"set transfer_price {_number(sc.transfer_price)}.")
    lines.append(f"set action_cost {_number(sc.action_cost)}.")
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
