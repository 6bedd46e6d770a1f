"""Prose-to-DSL ingestion tests.

The template backend is a pure function, so its outputs are frozen exactly.
The remote backend is exercised against a scripted local HTTP server to pin
the retry loop, the wire protocol and the transport/validation distinction.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from loophound.dsl import parse_ruleset, parse_state_spec
from loophound.formalizer import (
    ENDPOINT_ENV,
    REQUEST_KINDS,
    TIMEOUT_ENV,
    TOKEN_ENV,
    FormalizationRequest,
    FormalizerError,
    RemoteBackend,
    TemplateBackend,
    TransportError,
    formalize,
    validate_candidate,
)

from conftest import STATEMENTS


VALID_REDUCTION = (
    'reduction "stub-relief" kind exemption {\n'
    "  when: based(Self, ireland);\n"
    "  new_rate: 0.5 * Rate;\n"
    "}\n"
)
VALID_ACTION = (
    'action rentIP(L, R, Ip) ref "x" {\n'
    "  pre: ownsIP(L, Ip), exists(R), L != R, not rentsIP(_, R, Ip);\n"
    "  eff: rentsIP(L, R, Ip);\n"
    "}\n"
)
# the statements each request kind admits
ADMITTED = {
    "initial_state": {"company", "ip", "fact"},
    "reduction_rule": {"reduction"},
    "action_rule": {"action"},
}


class ScriptedBackend:
    """Replays a fixed list of candidate texts and records every call."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = []

    def generate(self, request, prior_diagnostics):
        self.calls.append((request, tuple(prior_diagnostics)))
        return self.outputs[min(len(self.calls), len(self.outputs)) - 1]


# -------------------------------------------------------------- templates


class TestTemplateInitialState:
    def test_single_company_exact_text(self):
        backend = TemplateBackend()
        request = FormalizationRequest(
            "initial_state", "company p in usa owning patent1"
        )
        text = backend.generate(request, ())
        assert text == (
            "company p. ip patent1. "
            "fact based(p, usa). fact ownsIP(p, patent1)."
        )
        result = formalize(request, backend)
        assert result.valid is True
        assert result.attempts == 1
        assert result.dsl_text == text

    def test_output_parses_as_state_spec(self):
        text = TemplateBackend().generate(
            FormalizationRequest("initial_state", "company p in usa owning patent1"),
            (),
        )
        parsed = parse_state_spec(text)
        assert parsed.ok
        assert parsed.document.companies == ("p",)
        assert parsed.document.ips == ("patent1",)

    def test_multiple_companies_and_ips(self):
        text = TemplateBackend().generate(
            FormalizationRequest(
                "initial_state",
                "company a in usa owning ip1, ip2. company b in germany.",
            ),
            (),
        )
        assert text == (
            "company a. ip ip1. ip ip2. "
            "fact based(a, usa). fact ownsIP(a, ip1). fact ownsIP(a, ip2). "
            "company b. fact based(b, germany)."
        )
        assert parse_state_spec(text).ok

    def test_case_is_normalized(self):
        text = TemplateBackend().generate(
            FormalizationRequest("initial_state", "Company HoldCo in USA"),
            (),
        )
        assert text == "company holdco. fact based(holdco, usa)."

    def test_pure_function_of_the_request(self):
        backend = TemplateBackend()
        request = FormalizationRequest("initial_state", "company p in usa")
        first = backend.generate(request, ())
        second = backend.generate(request, ("1:1: error: some prior failure",))
        assert first == second


class TestTemplateReduction:
    def test_rate_sentence_produces_parsable_rule(self, corpus_ruleset):
        request = FormalizationRequest(
            "reduction_rule",
            "rate 0.05 for royalties from germany to netherlands",
        )
        text = TemplateBackend().generate(request, ())
        assert '"template-royalty-germany-netherlands"' in text
        parsed = parse_ruleset(text)
        assert parsed.ok
        assert len(parsed.document.reduction_rules) == 1
        assert validate_candidate(text, "reduction_rule", ruleset=corpus_ruleset) == []

    def test_formalize_reduction_first_try(self, corpus_ruleset):
        result = formalize(
            FormalizationRequest(
                "reduction_rule", "rate 0.2 for royalties from usa to ireland"
            ),
            TemplateBackend(),
            ruleset=corpus_ruleset,
        )
        assert result.valid and result.attempts == 1

    def test_unmatched_prose_yields_empty_and_fails(self):
        result = formalize(
            FormalizationRequest("reduction_rule", "the weather is nice"),
            TemplateBackend(),
            max_attempts=2,
        )
        assert result.valid is False
        assert result.attempts == 2
        assert any("empty candidate" in d for d in result.diagnostics)


# ------------------------------------------------------------- validation


class TestValidation:
    def test_empty_text_is_an_error(self):
        diagnostics = validate_candidate("   ", "reduction_rule")
        assert len(diagnostics) == 1
        assert "empty candidate" in diagnostics[0].message

    @pytest.mark.parametrize("kind", REQUEST_KINDS)
    def test_comment_only_candidate_is_empty(self, kind):
        assert [str(d) for d in validate_candidate("# nothing matched\n", kind)] == [
            f"1:1: error: empty candidate text for kind {kind!r}"
        ]

    @pytest.mark.parametrize("keyword", sorted(STATEMENTS))
    @pytest.mark.parametrize("kind", REQUEST_KINDS)
    def test_statement_by_kind(self, kind, keyword):
        text = "# one statement\n  " + STATEMENTS[keyword] + "\n"
        refused = [
            str(d)
            for d in validate_candidate(text, kind)
            if "not allowed here" in d.message
        ]
        if keyword in ADMITTED[kind]:
            assert refused == []
        else:
            assert refused == [f"2:3: error: {keyword} statement not allowed here"]

    def test_state_statements_refused_in_a_rule_candidate(self):
        text = "company p. fact based(p, usa)."
        assert [str(d) for d in validate_candidate(text, "reduction_rule")] == [
            "1:1: error: company statement not allowed here",
            "1:12: error: fact statement not allowed here",
        ]

    def test_reduction_kind_rejects_action_statements(self):
        diagnostics = validate_candidate(VALID_REDUCTION + VALID_ACTION, "reduction_rule")
        assert [str(d) for d in diagnostics] == [
            "5:1: error: action statement not allowed here"
        ]

    def test_action_kind_rejects_reduction_statements(self):
        diagnostics = validate_candidate(VALID_ACTION + VALID_REDUCTION, "action_rule")
        assert [str(d) for d in diagnostics] == [
            "5:1: error: reduction statement not allowed here"
        ]

    def test_duplicate_legal_ref_detected_on_merge(self, corpus_ruleset):
        clash = (
            'reduction "2003/49/EC" kind exemption {\n'
            "  when: based(Self, ireland);\n"
            "  new_rate: 0.5 * Rate;\n"
            "}\n"
        )
        diagnostics = validate_candidate(clash, "reduction_rule", ruleset=corpus_ruleset)
        assert any(
            "duplicate rule ('exemption', '2003/49/EC') across files" == d.message
            for d in diagnostics
        )

    def test_fresh_ref_merges_cleanly(self, corpus_ruleset):
        assert (
            validate_candidate(VALID_REDUCTION, "reduction_rule", ruleset=corpus_ruleset)
            == []
        )

    def test_existing_company_and_ip_conflict_with_scenario(self, corpus_scenario):
        text = "company p. ip ip1. fact based(p, usa). fact ownsIP(p, ip1)."
        diagnostics = validate_candidate(text, "initial_state", scenario=corpus_scenario)
        messages = [d.message for d in diagnostics]
        assert "company 'p' already declared" in messages
        assert "ip 'ip1' already declared" in messages

    def test_scenario_conflicts_are_reported_at_their_declarations(
        self, corpus_scenario
    ):
        text = "company q.\ncompany p. ip ip1.\nfact based(p, usa). fact based(q, usa).\n"
        diagnostics = validate_candidate(text, "initial_state", scenario=corpus_scenario)
        assert [str(d) for d in diagnostics] == [
            "2:9: error: company 'p' already declared",
            "2:15: error: ip 'ip1' already declared",
        ]

    def test_fact_names_only_scenario_countries(self, corpus_scenario):
        text = "company q. fact based(q, narnia)."
        diagnostics = validate_candidate(text, "initial_state", scenario=corpus_scenario)
        assert [str(d) for d in diagnostics] == [
            "1:17: error: fact references undeclared country 'narnia'"
        ]
        assert validate_candidate(text, "initial_state") == []

    def test_new_company_passes_against_scenario(self, corpus_scenario):
        text = "company q. fact based(q, usa)."
        assert validate_candidate(text, "initial_state", scenario=corpus_scenario) == []

    def test_facts_may_name_the_scenario_entities(self, corpus_scenario):
        # p and ip1 are the scenario's
        for text in (
            "company q. fact based(q, usa). fact isChildOf(q, p).",
            "company q. fact based(q, usa). fact rentsIP(p, q, ip1).",
        ):
            assert validate_candidate(text, "initial_state", scenario=corpus_scenario) == []

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            (
                "company a. company b. ip i. fact based(a, usa). fact based(b, usa). "
                "fact ownsIP(a, i). fact ownsIP(b, i).",
                "1:93: error: initial state: ip 'i' has more than one owner",
            ),
            (
                "company a. fact based(a, usa). fact based(a, ireland).",
                "1:37: error: initial state: company 'a' is based in multiple countries",
            ),
            (
                "company q.",
                "1:9: error: company 'q' is resident nowhere: it needs a based or managed fact",
            ),
            # breaches that only the scenario's state together with the
            # candidate's holds
            (
                "company q. fact based(q, usa). fact ownsIP(q, ip1).",
                "1:37: error: initial state: ip 'ip1' has more than one owner",
            ),
            (
                "fact based(p, germany).",
                "1:6: error: initial state: company 'p' is based in multiple countries",
            ),
            (
                "company c1. fact based(c1, usa).",
                "1:9: error: pool id 'c1' is already a declared company",
            ),
        ],
        ids=[
            "two-owners", "two-countries", "resident-nowhere",
            "owner-of-the-scenario-ip", "scenario-company-rebased", "pool-id",
        ],
    )
    def test_candidate_and_scenario_form_an_initial_state(
        self, corpus_scenario, text, diagnostic
    ):
        diagnostics = validate_candidate(text, "initial_state", scenario=corpus_scenario)
        assert [str(d) for d in diagnostics] == [diagnostic]

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormalizerError, match="unknown request kind"):
            validate_candidate("x", "poetry")
        with pytest.raises(FormalizerError, match="unknown request kind"):
            FormalizationRequest("poetry", "x")


# ------------------------------------------------------------- retry loop


class TestRetryLoop:
    def test_retry_fixes_after_diagnostics(self):
        backend = ScriptedBackend(["reduction garbage {{{", VALID_REDUCTION])
        result = formalize(
            FormalizationRequest("reduction_rule", "ireland relief"), backend
        )
        assert result.valid is True
        assert result.attempts == 2
        # second call must have seen the first round's errors
        assert backend.calls[0][1] == ()
        assert backend.calls[1][1]
        assert all("error" in d for d in backend.calls[1][1])

    def test_persistent_failure_reports_last_diagnostics(self):
        backend = ScriptedBackend(["nonsense"])
        result = formalize(
            FormalizationRequest("reduction_rule", "x"), backend, max_attempts=3
        )
        assert result.valid is False
        assert result.attempts == 3
        assert len(backend.calls) == 3
        assert result.diagnostics

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(FormalizerError, match="max_attempts"):
            formalize(
                FormalizationRequest("reduction_rule", "x"),
                ScriptedBackend(["y"]),
                max_attempts=0,
            )


# ---------------------------------------------------------- remote backend


class _StubHandler(BaseHTTPRequestHandler):
    script: list = []
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        type(self).seen.append(
            {"payload": payload, "auth": self.headers.get("Authorization")}
        )
        step = type(self).script.pop(0)
        if step.get("raw") is not None:
            body = step["raw"]
        else:
            body = json.dumps(step["json"]).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.script = []
    _StubHandler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}/formalize"
    finally:
        server.shutdown()
        server.server_close()


class TestRemoteBackend:
    def test_retry_over_http_with_auth_header(self, stub_server):
        _, url = stub_server
        _StubHandler.script = [
            {"json": {"dsl_text": "broken {{{"}},
            {"json": {"dsl_text": VALID_REDUCTION}},
        ]
        backend = RemoteBackend(url, auth_token="secret-token")
        result = formalize(
            FormalizationRequest("reduction_rule", "ireland relief", context="c"),
            backend,
        )
        assert result.valid is True
        assert result.attempts == 2
        assert result.dsl_text == VALID_REDUCTION
        first, second = _StubHandler.seen
        assert first["auth"] == "Bearer secret-token"
        assert first["payload"]["kind"] == "reduction_rule"
        assert first["payload"]["natural_text"] == "ireland relief"
        assert first["payload"]["context"] == "c"
        assert first["payload"]["prior_diagnostics"] == []
        assert second["payload"]["prior_diagnostics"]

    def test_malformed_body_is_a_transport_error(self, stub_server):
        _, url = stub_server
        _StubHandler.script = [{"raw": b"this is not json"}]
        with pytest.raises(TransportError, match="malformed formalizer response"):
            RemoteBackend(url).generate(
                FormalizationRequest("reduction_rule", "x"), ()
            )

    def test_non_string_dsl_text_is_a_transport_error(self, stub_server):
        _, url = stub_server
        _StubHandler.script = [{"json": {"dsl_text": 7}}]
        with pytest.raises(TransportError, match="not a string"):
            RemoteBackend(url).generate(
                FormalizationRequest("reduction_rule", "x"), ()
            )

    def test_unreachable_endpoint_is_a_transport_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = RemoteBackend(f"http://127.0.0.1:{port}/", timeout=0.5)
        with pytest.raises(TransportError, match="unreachable"):
            backend.generate(FormalizationRequest("reduction_rule", "x"), ())

    def test_transport_errors_are_not_validation_failures(self, stub_server):
        # formalize must not swallow transport problems as a retry
        _, url = stub_server
        _StubHandler.script = [{"raw": b"garbage"}]
        with pytest.raises(TransportError):
            formalize(
                FormalizationRequest("reduction_rule", "x"), RemoteBackend(url)
            )

    def test_constructor_validation(self):
        with pytest.raises(FormalizerError, match="endpoint"):
            RemoteBackend("")
        with pytest.raises(FormalizerError, match="timeout"):
            RemoteBackend("http://x", timeout=0)

    def test_from_environment(self):
        env = {
            ENDPOINT_ENV: "http://example.invalid/f",
            TOKEN_ENV: "tok",
            TIMEOUT_ENV: "3",
        }
        backend = RemoteBackend.from_environment(env)
        assert backend.endpoint == "http://example.invalid/f"
        assert backend.auth_token == "tok"
        assert backend.timeout == 3.0

    def test_from_environment_defaults_and_missing(self):
        backend = RemoteBackend.from_environment({ENDPOINT_ENV: "http://x"})
        assert backend.auth_token is None
        assert backend.timeout == 10.0
        with pytest.raises(FormalizerError, match=ENDPOINT_ENV):
            RemoteBackend.from_environment({})

    @pytest.mark.parametrize("raw", ["abc", "", "nan", "inf", "-inf", "0", "-2"])
    def test_from_environment_rejects_a_bad_timeout(self, raw):
        env = {ENDPOINT_ENV: "http://x", TIMEOUT_ENV: raw}
        with pytest.raises(FormalizerError, match=TIMEOUT_ENV):
            RemoteBackend.from_environment(env)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0])
    def test_constructor_rejects_a_timeout_that_is_not_finite_and_positive(
        self, timeout
    ):
        with pytest.raises(FormalizerError, match="timeout"):
            RemoteBackend("http://x", timeout=timeout)
