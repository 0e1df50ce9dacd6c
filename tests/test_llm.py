"""Transport layer: HTTP endpoint, transcripts, and the offline mocks."""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlinker import (
    Candidate,
    ExactMatchMockEndpoint,
    HttpCompletionEndpoint,
    KeywordMockEndpoint,
    OneShotExample,
    PromptConfig,
    Query,
    ScriptedEndpoint,
    TranscriptStore,
    Variant,
    build_prompt,
    parse_prompt,
    prompt_digest,
)
from conceptlinker import transport
from conceptlinker.errors import Timeout, TranscriptMiss, TransportError
from conceptlinker.ranker import NONE_LABEL, _render, estimate_tokens

from .conftest import Concept, ontology_from
from .oracles import keyword_mock_ref
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
        assert again.lookup("d2") == "None"

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

    @pytest.mark.parametrize("row", [{"digest": "d1", "response": 5},
                                     {"digest": "d1", "response": None},
                                     {"digest": "d1", "response": ["option 0"]},
                                     {"digest": 1, "response": "option 0"}])
    def test_rows_with_a_non_string_field_are_skipped(self, tmp_path, caplog, row):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps({"digest": "d2", "response": "r2"}))
        with caplog.at_level("WARNING"):
            store = TranscriptStore(path)
        assert len(store) == 1
        assert store.lookup("d2") == "r2"
        assert "skipping malformed transcript line" in caplog.text

    def test_skipped_row_misses_on_replay_and_is_asked_again(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"digest": prompt_digest("p"), "response": 5}) + "\n")
        with pytest.raises(TranscriptMiss):
            TranscriptStore(path).complete("p")
        inner = ScriptedEndpoint(["option 0"])
        assert TranscriptStore(path, inner).complete("p") == "option 0"
        assert TranscriptStore(path).complete("p") == "option 0"

    def test_missing_file_is_empty(self, tmp_path):
        assert len(TranscriptStore(tmp_path / "absent.jsonl")) == 0

    def test_recording_records_then_reuses(self, tmp_path):
        inner = ScriptedEndpoint(["option 1"])
        store = TranscriptStore(tmp_path / "t.jsonl", inner)
        assert store.complete("prompt text") == "option 1"
        # second call is served from the transcript, not the inner endpoint
        assert store.complete("prompt text") == "option 1"
        assert len(inner.prompts) == 1
        assert store.lookup(prompt_digest("prompt text")) == "option 1"

    def test_replay_hit_and_miss(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        store.save(prompt_digest("known"), "option 0")
        assert store.complete("known") == "option 0"
        with pytest.raises(TranscriptMiss):
            store.complete("never recorded")

    def test_record_then_replay_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recording = TranscriptStore(path, ScriptedEndpoint(["a", "b"]))
        first = [recording.complete("p1"), recording.complete("p2")]
        replay = TranscriptStore(path)
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
        prompt = build_prompt(
            Query(id="q", mention="Thrombocytopenia"),
            fixture_candidates(), fixture_ontology(), PromptConfig(),
        )
        assert ExactMatchMockEndpoint().complete(prompt) == "option 1"

    def test_case_insensitive(self):
        prompt = build_prompt(
            Query(id="q", mention="HEMOPHILIA"),
            fixture_candidates(), fixture_ontology(), PromptConfig(),
        )
        assert ExactMatchMockEndpoint().complete(prompt) == "option 2"

    def test_no_match_is_none(self):
        assert ExactMatchMockEndpoint().complete(render_fixture()) == "None"

    def test_abstains_with_the_prompts_none_label(self):
        # the example block offers its own none line and answers an option
        example = OneShotExample(
            query="warfarin sensitivity",
            options="0: Warfarin resistance\nNone: none of the above options match",
            answer="option 0",
        )
        prompt = render_fixture(PromptConfig(one_shot=example))
        assert ExactMatchMockEndpoint().complete(prompt) == NONE_LABEL
        bare = PromptConfig(include_candidate_context=False, one_shot=example)
        assert KeywordMockEndpoint().complete(render_fixture(bare)) == NONE_LABEL


class TestKeywordMock:
    def test_context_overlap_wins(self):
        # "platelet" and "aggregation" appear in the P2Y12 description
        assert KeywordMockEndpoint().complete(render_fixture()) == "option 0"

    def test_without_descriptions_falls_back_to_unique_name(self):
        prompt = build_prompt(
            Query(id="q", mention="Hemophilia"),
            fixture_candidates(), fixture_ontology(),
            PromptConfig(include_candidate_context=False),
        )
        assert KeywordMockEndpoint().complete(prompt) == "option 2"

    def test_ambiguous_name_abstains(self):
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


# shared words, and characters on both sides of the a-z rule: the Kelvin
# sign lowercases to k and U+0130 to i and a combining dot; é and ß stay
_WORDS = (
    "platelet", "Platelets", "aggregation", "KINASE", "\u212aINASE", "kinase",
    "\u0130NHIBITOR", "inhib\u0130tor", "DISORDER", "café", "caféine", "straße",
    "covid-19", "type2", "anti-thrombin", "marrow", "blood", "cells", "of", "x7",
)
_NAMES = ("Cold", "cold ", "\u212ainase deficiency", "\u0130nhibitor", "Marrow failure")
_SENTENCES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=40).map(" ".join)
# long enough that build_prompt's budget cuts at 300, 150 and 75 characters all bite
_DESCRIPTIONS = st.lists(st.sampled_from(_WORDS), min_size=20, max_size=120).map(" ".join)

# the benchmark's grid: the four arms of demos/data/grid.jsonl, then one-shot
_ARMS = (
    PromptConfig(),
    PromptConfig(include_candidate_context=False),
    PromptConfig(include_source_context=False),
    PromptConfig(include_source_context=False, include_candidate_context=False),
    PromptConfig(one_shot=OneShotExample(
        query="marrow failure",
        options="0: aplastic anemia | failure of the bone marrow to make blood cells\n"
                "1: marrow edema | fluid within the bone marrow",
        answer="option 0",
    )),
)
# the description cuts build_prompt tries in turn under a budget; None drops them
_SHED_TO = (600, 300, 150, 75, None)


@st.composite
def mock_prompts(draw) -> list[str]:
    """Prompts over one generated ontology, under every arm and several budgets."""
    descriptions = draw(st.lists(_DESCRIPTIONS, min_size=1, max_size=4))
    concepts = [
        Concept(id=f"C{i}", name=draw(st.sampled_from(_NAMES)),
                description=draw(st.none() | st.sampled_from(descriptions)))
        for i in range(draw(st.integers(1, 6)))
    ]
    ontology = ontology_from("mock", concepts)
    prompts = []
    for i in range(draw(st.integers(1, 3))):
        query = Query(id=f"q{i}", mention=draw(st.sampled_from(_NAMES) | _SENTENCES),
                      context=draw(st.none() | _SENTENCES))
        ids = draw(st.permutations([c.id for c in concepts]))
        candidates = [Candidate(id, 0.5, Variant.NAME_ONLY)
                      for id in ids[: draw(st.integers(1, len(ids)))]]
        for config in _ARMS:
            prompts.append(build_prompt(query, candidates, ontology, config))
            for chars in _SHED_TO:  # the budget that this cut just fits
                if not config.include_candidate_context:
                    chars = None
                budget = estimate_tokens(_render(query, candidates, ontology, config, chars))
                prompts.append(build_prompt(query, candidates, ontology, config,
                                            token_budget=budget))
    return prompts


class TestKeywordMockOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mock_prompts())
    def test_one_endpoint_matches_the_oracle_on_every_call(self, prompts):
        endpoint = KeywordMockEndpoint()
        assert [endpoint.complete(p) for p in prompts] == [keyword_mock_ref(p) for p in prompts]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(mock_prompts())
    def test_one_endpoint_shared_by_threads_answers_as_in_sequence(self, prompts):
        expected = [KeywordMockEndpoint().complete(p) for p in prompts]
        shared = KeywordMockEndpoint()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        start = threading.Barrier(4)

        def answer_all() -> list[str]:
            start.wait(timeout=60)  # so the four meet each new text at about the same time
            return [shared.complete(p) for p in prompts]

        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(answer_all) for _ in range(4)]
                answers = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert answers == [expected] * 4

    def test_store_grows_with_distinct_option_texts_not_calls(self):
        prompts = [
            _render(fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig(),
                    chars)
            for chars in (600, 100, 50)
        ]
        texts = {d for p in prompts for _, d in parse_prompt(p)[2] if d}
        assert len(texts) == 5  # both descriptions whole, and cut at 100 and at 50
        endpoint = KeywordMockEndpoint()
        first = [endpoint.complete(p) for p in prompts]
        assert set(endpoint._words) == texts
        assert [endpoint.complete(p) for p in prompts] == first
        assert set(endpoint._words) == texts
        assert KeywordMockEndpoint()._words == {}
