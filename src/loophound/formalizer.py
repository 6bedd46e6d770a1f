"""Natural-language to rule-DSL ingestion boundary.

Turns short prose descriptions into candidate DSL text through a pluggable
backend, then funnels every candidate through the real parser before it may
touch a ruleset.  Backends implement ``generate(request, prior_diagnostics)``;
two are provided:

* ``TemplateBackend`` -- a deterministic pattern matcher over a small
  documented vocabulary ("company X in COUNTRY owning IP", "rate R for
  royalties from COUNTRY to COUNTRY").  Pure function of the request; used as
  an offline fixture.
* ``RemoteBackend`` -- a generic HTTP endpoint speaking a small JSON
  protocol; endpoint, token and timeout come from configuration or
  environment variables.

A request kind names the statements its candidate may hold: an
``initial_state`` a state spec's (``company``, ``ip``, ``fact``), a
``reduction_rule`` only ``reduction`` and an ``action_rule`` only
``action``.  The parser alone enforces this, as it does for any document:
a refused statement is an error at its keyword, and every other error is
reported at its statement as well.  A candidate that holds no statement its
kind admits is rejected as empty.

Validation failures are fed back to the backend for a bounded number of
retries.  Transport failures raise ``TransportError`` and are never confused
with validation failures.
"""

from __future__ import annotations

import json
import math
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Mapping, Optional, Protocol, Sequence

from .dsl import (
    Diagnostic,
    RuleSetDoc,
    ScenarioDoc,
    merge_rulesets,
    parse_ruleset,
    parse_state_spec,
)

REQUEST_KINDS: tuple[str, ...] = ("initial_state", "reduction_rule", "action_rule")

ENDPOINT_ENV = "LOOPHOUND_FORMALIZER_ENDPOINT"
TOKEN_ENV = "LOOPHOUND_FORMALIZER_TOKEN"
TIMEOUT_ENV = "LOOPHOUND_FORMALIZER_TIMEOUT"


class FormalizerError(Exception):
    """Raised for invalid formalizer configuration or requests."""


class TransportError(FormalizerError):
    """Backend could not be reached or spoke a malformed protocol."""


@dataclass(frozen=True)
class FormalizationRequest:
    kind: str
    natural_text: str
    context: str = ""

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise FormalizerError(
                f"unknown request kind {self.kind!r}; expected one of {', '.join(REQUEST_KINDS)}"
            )


@dataclass(frozen=True)
class FormalizationResult:
    dsl_text: str
    valid: bool
    diagnostics: tuple[str, ...]
    attempts: int


class Backend(Protocol):
    def generate(
        self, request: FormalizationRequest, prior_diagnostics: Sequence[str]
    ) -> str: ...


# ============================================================================
# Template backend
# ============================================================================

_COMPANY_RE = re.compile(
    r"company\s+(?P<id>\w+)\s+in\s+(?P<country>\w+)"
    r"(?:\s+owning\s+(?P<ips>\w+(?:(?:\s*,\s*|\s+and\s+)\w+)*))?",
    re.IGNORECASE,
)
_RATE_RE = re.compile(
    r"rate\s+(?P<rate>\d+(?:\.\d+)?)\s+for\s+royalties\s+from\s+"
    r"(?P<source>\w+)\s+to\s+(?P<target>\w+)",
    re.IGNORECASE,
)
_IP_SPLIT_RE = re.compile(r"\s*,\s*|\s+and\s+", re.IGNORECASE)


class TemplateBackend:
    """Deterministic pattern templates; same request, same output, always."""

    def generate(
        self, request: FormalizationRequest, prior_diagnostics: Sequence[str]
    ) -> str:
        if request.kind == "initial_state":
            return self._initial_state(request.natural_text)
        if request.kind == "reduction_rule":
            return self._reduction_rule(request.natural_text)
        return ""

    def _initial_state(self, text: str) -> str:
        statements: list[str] = []
        declared_ips: set[str] = set()
        for match in _COMPANY_RE.finditer(text):
            company = match.group("id").lower()
            country = match.group("country").lower()
            statements.append(f"company {company}.")
            ips = []
            if match.group("ips"):
                ips = [ip.lower() for ip in _IP_SPLIT_RE.split(match.group("ips"))]
            for ip in ips:
                if ip not in declared_ips:
                    declared_ips.add(ip)
                    statements.append(f"ip {ip}.")
            statements.append(f"fact based({company}, {country}).")
            for ip in ips:
                statements.append(f"fact ownsIP({company}, {ip}).")
        return " ".join(statements)

    def _reduction_rule(self, text: str) -> str:
        rules: list[str] = []
        for match in _RATE_RE.finditer(text):
            rate = match.group("rate")
            source = match.group("source").lower()
            target = match.group("target").lower()
            rules.append(
                f'reduction "template-royalty-{source}-{target}" kind exemption {{\n'
                f"  when: based(Self, {target}), transaction(royalty, R, Self),\n"
                f"        based(R, {source});\n"
                f"  new_rate: {rate};\n"
                f"}}"
            )
        return "\n\n".join(rules)


# ============================================================================
# Remote backend
# ============================================================================


class RemoteBackend:
    """POSTs {kind, natural_text, context, prior_diagnostics}, reads {dsl_text}."""

    def __init__(
        self, endpoint: str, auth_token: Optional[str] = None, timeout: float = 10.0
    ) -> None:
        if not endpoint:
            raise FormalizerError("remote backend needs a non-empty endpoint URL")
        if not 0 < timeout < math.inf:
            raise FormalizerError(f"timeout must be finite and positive, not {timeout!r}")
        self.endpoint = endpoint
        self.auth_token = auth_token
        self.timeout = timeout

    @classmethod
    def from_environment(cls, environ: Optional[Mapping[str, str]] = None) -> "RemoteBackend":
        env = os.environ if environ is None else environ
        endpoint = env.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise FormalizerError(f"environment variable {ENDPOINT_ENV} is not set")
        token = env.get(TOKEN_ENV) or None
        raw = env.get(TIMEOUT_ENV, "10")
        try:
            timeout = float(raw)
        except ValueError:
            timeout = math.nan  # rejected below, naming the variable
        if not 0 < timeout < math.inf:
            raise FormalizerError(
                f"environment variable {TIMEOUT_ENV} must be a finite positive "
                f"number of seconds, not {raw!r}"
            )
        return cls(endpoint=endpoint, auth_token=token, timeout=timeout)

    def generate(
        self, request: FormalizationRequest, prior_diagnostics: Sequence[str]
    ) -> str:
        payload = {
            "kind": request.kind,
            "natural_text": request.natural_text,
            "context": request.context,
            "prior_diagnostics": list(prior_diagnostics),
        }
        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        http_request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                body = response.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise TransportError(f"formalizer endpoint unreachable: {exc}") from exc
        try:
            document = json.loads(body.decode("utf-8"))
            dsl_text = document["dsl_text"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise TransportError(f"malformed formalizer response: {exc}") from exc
        if not isinstance(dsl_text, str):
            raise TransportError("formalizer response field dsl_text is not a string")
        return dsl_text


# ============================================================================
# Validation
# ============================================================================


# the one statement a rule request admits; an initial_state admits a state
# spec's statements
_RULE_STATEMENT = {"reduction_rule": "reduction", "action_rule": "action"}


def validate_candidate(
    text: str,
    kind: str,
    ruleset: Optional[RuleSetDoc] = None,
    scenario: Optional[ScenarioDoc] = None,
) -> list[Diagnostic]:
    """The errors of ``text`` as a candidate of ``kind``; none means it is
    acceptable.  The parser admits only the statements of the kind, checks
    an initial state against ``scenario`` and reports every error at its
    statement; a candidate that holds none of them is empty, and rules must
    merge with ``ruleset``."""
    if kind not in REQUEST_KINDS:
        raise FormalizerError(f"unknown request kind {kind!r}")
    if kind == "initial_state":
        parsed = parse_state_spec(text, scenario)
    else:
        parsed = parse_ruleset(text, {_RULE_STATEMENT[kind]})
    if not parsed.ok:
        return parsed.errors()
    # each field of a document holds what one kind of statement declared
    if not any(vars(parsed.document).values()):
        return [Diagnostic("error", f"empty candidate text for kind {kind!r}", 1, 1)]
    if ruleset is not None and kind != "initial_state":
        return merge_rulesets([ruleset, parsed.document]).errors()
    return []


def formalize(
    request: FormalizationRequest,
    backend: Backend,
    max_attempts: int = 3,
    ruleset: Optional[RuleSetDoc] = None,
    scenario: Optional[ScenarioDoc] = None,
) -> FormalizationResult:
    """Generate, validate, and retry with diagnostics up to max_attempts."""
    if max_attempts < 1:
        raise FormalizerError("max_attempts must be at least 1")
    prior: tuple[str, ...] = ()
    text = ""
    for attempt in range(1, max_attempts + 1):
        text = backend.generate(request, prior)
        errors = validate_candidate(text, request.kind, ruleset=ruleset, scenario=scenario)
        if not errors:
            return FormalizationResult(
                dsl_text=text, valid=True, diagnostics=(), attempts=attempt
            )
        prior = tuple(str(d) for d in errors)
    return FormalizationResult(
        dsl_text=text, valid=False, diagnostics=prior, attempts=max_attempts
    )
