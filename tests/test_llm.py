"""Transport layer: HTTP endpoint, transcripts, and the offline mocks."""

from __future__ import annotations

import json

import pytest
import requests

from conceptlinker import (
    Candidate,
    ExactMatchMockEndpoint,
    HttpCompletionEndpoint,
    KeywordMockEndpoint,
    OneShotExample,
    PromptConfig,
    ScriptedEndpoint,
    TranscriptStore,
    Variant,
    build_prompt,
    parse_prompt,
    prompt_digest,
)
from conceptlinker import transport
from conceptlinker.errors import Timeout, TranscriptMiss, TransportError

from .test_embedding import FakeResponse, FakeSession
from .test_ranker import (
    fixture_candidates,
    fixture_ontology,
    fixture_query,
    one_shot,
)


def chat_payload(content) -> dict:
    return {"choices": [{"message": {"content": content}}]}


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    monkeypatch.setattr("conceptlinker.transport.time.sleep", lambda s: None)


class TestHttpCompletionEndpoint:
    def make(self, responses, **kwargs) -> tuple[HttpCompletionEndpoint, FakeSession]:
        session = FakeSession(responses)
        endpoint = HttpCompletionEndpoint(
            "https://llm.test/v1/chat", "ranker-1", session=session, **kwargs
        )
        return endpoint, session

    def test_payload_shape_and_content(self):
        endpoint, session = self.make([FakeResponse(200, chat_payload("option 2"))])
        assert endpoint.complete("pick one") == "option 2"
        call = session.calls[0]
        assert call["url"] == "https://llm.test/v1/chat"
        assert call["json"] == {
            "model": "ranker-1",
            "messages": [{"role": "user", "content": "pick one"}],
            "temperature": 0,
        }

    def test_bearer_header_from_env(self, monkeypatch):
        monkeypatch.setenv("LINKER_API_KEY", "sk-test")
        _, session = self.make([FakeResponse(200, chat_payload("x"))])
        endpoint = HttpCompletionEndpoint("https://llm.test", "m", session=session)
        endpoint.complete("p")
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_no_header_without_key(self, monkeypatch):
        monkeypatch.delenv("LINKER_API_KEY", raising=False)
        endpoint, session = self.make([FakeResponse(200, chat_payload("x"))])
        endpoint.complete("p")
        assert "Authorization" not in session.calls[0]["headers"]

    def test_server_error_retried(self):
        endpoint, session = self.make([
            FakeResponse(500, text="boom"),
            FakeResponse(200, chat_payload("ok")),
        ])
        assert endpoint.complete("p") == "ok"
        assert len(session.calls) == 2

    def test_rate_limit_retried(self):
        endpoint, session = self.make([
            FakeResponse(429, text="slow down"),
            FakeResponse(200, chat_payload("ok")),
        ])
        assert endpoint.complete("p") == "ok"
        assert len(session.calls) == 2

    @pytest.mark.parametrize("status, headers, pause", [
        (429, {"Retry-After": "5"}, 5.0),
        (503, {"Retry-After": "5"}, 5.0),
        (503, {"Retry-After": "86400"}, transport.RETRY_AFTER_CAP_S),
        (429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, transport.RETRY_BACKOFF_S[0]),
        (429, {}, transport.RETRY_BACKOFF_S[0]),
        (503, None, transport.RETRY_BACKOFF_S[0]),
    ], ids=["429", "503", "capped", "http-date", "missing", "no-headers"])
    def test_retry_after_sets_the_pause(self, monkeypatch, status, headers, pause):
        slept = []
        monkeypatch.setattr("conceptlinker.transport.time.sleep", slept.append)
        endpoint, _ = self.make([
            FakeResponse(status, text="wait", headers=headers),
            FakeResponse(200, chat_payload("ok")),
        ])
        assert endpoint.complete("p") == "ok"
        assert slept == [pause]

    def test_retries_exhaust_to_transport_error(self):
        endpoint, session = self.make([FakeResponse(503, text="down")] * 3)
        with pytest.raises(TransportError) as info:
            endpoint.complete("p")
        assert info.value.status == 503
        assert len(session.calls) == 3

    def test_client_error_fails_fast(self):
        endpoint, session = self.make([FakeResponse(401, text="unauthorized")])
        with pytest.raises(TransportError) as info:
            endpoint.complete("p")
        assert info.value.status == 401
        assert len(session.calls) == 1

    def test_timeout_retried_then_raised(self):
        endpoint, _ = self.make([requests.Timeout("slow")] * 3)
        with pytest.raises(Timeout):
            endpoint.complete("p")

    def test_connection_error_recovers(self):
        endpoint, _ = self.make([
            requests.ConnectionError("refused"),
            FakeResponse(200, chat_payload("ok")),
        ])
        assert endpoint.complete("p") == "ok"

    def test_malformed_body(self):
        endpoint, _ = self.make([FakeResponse(200, {"choices": []})])
        with pytest.raises(TransportError, match="malformed"):
            endpoint.complete("p")

    def test_non_string_content(self):
        endpoint, _ = self.make([FakeResponse(200, chat_payload(42))])
        with pytest.raises(TransportError, match="not a string"):
            endpoint.complete("p")

    def test_validation(self):
        with pytest.raises(ValueError):
            HttpCompletionEndpoint("", "m")
        with pytest.raises(ValueError):
            HttpCompletionEndpoint("https://x", "m", token_budget=0)

    def test_builds_a_requests_session_when_given_none(self):
        endpoint = HttpCompletionEndpoint("https://llm.test/v1/chat", "ranker-1")
        assert type(endpoint._session) is requests.Session
        endpoint._session.close()


class TestTranscriptStore:
    def test_round_trip(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        store.save("d1", "option 0")
        store.save("d2", "None")
        again = TranscriptStore(tmp_path / "t.jsonl")
        assert len(again) == 2
        assert again.lookup("d1") == "option 0"
        assert "d2" in again

    def test_identical_save_not_duplicated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TranscriptStore(path)
        store.save("d1", "x")
        store.save("d1", "x")
        assert len(path.read_text().splitlines()) == 1

    def test_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"digest": "d1", "response": "r1"}) + "\n" + '{"digest": "d2", "resp'
        )
        store = TranscriptStore(path)
        assert len(store) == 1
        assert store.lookup("d1") == "r1"

    def test_missing_file_is_empty(self, tmp_path):
        assert len(TranscriptStore(tmp_path / "absent.jsonl")) == 0

    def test_recording_records_then_reuses(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        inner = ScriptedEndpoint(["option 1"])
        endpoint = store.recording(inner)
        assert endpoint.complete("prompt text") == "option 1"
        # second call is served from the transcript, not the inner endpoint
        assert endpoint.complete("prompt text") == "option 1"
        assert len(inner.prompts) == 1
        assert store.lookup(prompt_digest("prompt text")) == "option 1"

    def test_recording_passes_token_budget(self, tmp_path):
        class Budgeted:
            token_budget = 77

            def complete(self, prompt):
                return "x"

        endpoint = TranscriptStore(tmp_path / "t.jsonl").recording(Budgeted())
        assert endpoint.token_budget == 77

    def test_replay_hit_and_miss(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        store.save(prompt_digest("known"), "option 0")
        endpoint = store.replay()
        assert endpoint.complete("known") == "option 0"
        with pytest.raises(TranscriptMiss):
            endpoint.complete("never recorded")

    def test_record_then_replay_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recording = TranscriptStore(path).recording(ScriptedEndpoint(["a", "b"]))
        first = [recording.complete("p1"), recording.complete("p2")]
        replay = TranscriptStore(path).replay()
        assert [replay.complete("p1"), replay.complete("p2")] == first


class TestScriptedEndpoint:
    def test_in_order_and_exhaustion(self):
        endpoint = ScriptedEndpoint(["a", "b"])
        assert endpoint.complete("p1") == "a"
        assert endpoint.complete("p2") == "b"
        with pytest.raises(TransportError, match="exhausted"):
            endpoint.complete("p3")
        assert endpoint.prompts == ["p1", "p2", "p3"]


class TestParsePrompt:
    def render(self, config: PromptConfig) -> str:
        return build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), config
        )

    def test_round_trip(self):
        mention, context, options = parse_prompt(self.render(PromptConfig()))
        assert mention == "platelet P2Y12 disorder"
        assert context.startswith("Proband with mucocutaneous")
        assert [name for name, _ in options] == [
            "Bleeding disorder due to P2Y12 defect",
            "Thrombocytopenia",
            "Hemophilia",
        ]
        assert options[0][1].startswith("A rare inherited")
        assert options[2][1] is None

    def test_one_shot_block_skipped(self):
        prompt = self.render(PromptConfig(one_shot=one_shot()))
        mention, _, options = parse_prompt(prompt)
        assert mention == "platelet P2Y12 disorder"
        assert len(options) == 3
        assert options[0][0] != "Warfarin resistance"

    def test_no_context_round_trips_as_none(self):
        _, context, _ = parse_prompt(self.render(PromptConfig(include_source_context=False)))
        assert context is None

    def test_rejects_alien_text(self):
        with pytest.raises(ValueError):
            parse_prompt("hello world")


def render_fixture(config: PromptConfig | None = None) -> str:
    return build_prompt(
        fixture_query(), fixture_candidates(), fixture_ontology(),
        config or PromptConfig(),
    )


class TestExactMatchMock:
    def test_matches_name(self):
        from conceptlinker import Query

        prompt = build_prompt(
            Query(id="q", mention="Thrombocytopenia"),
            fixture_candidates(), fixture_ontology(), PromptConfig(),
        )
        assert ExactMatchMockEndpoint().complete(prompt) == "option 1"

    def test_case_insensitive(self):
        from conceptlinker import Query

        prompt = build_prompt(
            Query(id="q", mention="HEMOPHILIA"),
            fixture_candidates(), fixture_ontology(), PromptConfig(),
        )
        assert ExactMatchMockEndpoint().complete(prompt) == "option 2"

    def test_no_match_is_none(self):
        assert ExactMatchMockEndpoint().complete(render_fixture()) == "None"


class TestKeywordMock:
    def test_context_overlap_wins(self):
        # "platelet" and "aggregation" appear in the P2Y12 description
        assert KeywordMockEndpoint().complete(render_fixture()) == "option 0"

    def test_without_descriptions_falls_back_to_unique_name(self):
        from conceptlinker import Query

        prompt = build_prompt(
            Query(id="q", mention="Hemophilia"),
            fixture_candidates(), fixture_ontology(),
            PromptConfig(include_candidate_context=False),
        )
        assert KeywordMockEndpoint().complete(prompt) == "option 2"

    def test_ambiguous_name_abstains(self):
        from conceptlinker import Concept, Query

        from .conftest import ontology_from

        twins = ontology_from("twins", [
            Concept(id="A:1", name="Cold", description="Viral infection of the nose"),
            Concept(id="A:2", name="Cold", description="Sensation of low temperature"),
        ])
        candidates = [
            Candidate("A:1", 0.9, Variant.NAME_ONLY),
            Candidate("A:2", 0.9, Variant.NAME_ONLY),
        ]
        prompt = build_prompt(
            Query(id="q", mention="Cold"), candidates, twins,
            PromptConfig(include_candidate_context=False),
        )
        assert KeywordMockEndpoint().complete(prompt) == "None"

    def test_no_signal_abstains(self):
        assert (
            KeywordMockEndpoint().complete(
                render_fixture(PromptConfig(include_candidate_context=False))
            )
            == "None"
        )
