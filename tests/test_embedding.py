"""Local embedder against an independent oracle, cache, and HTTP client."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlinker import (
    LOCAL_PROVIDER_ID,
    REMOTE_PROVIDER_ID,
    Concept,
    LocalTrigramProvider,
    ProviderSpec,
    RemoteProvider,
    VectorCache,
    build_memory,
    local_embed,
)
from conceptlinker import embedding as embedding_module
from conceptlinker import transport
from conceptlinker.embedding import _CACHE_HEADER, CACHE_MAGIC
from conceptlinker.errors import DimMismatch, EmptyText, InvalidVector, TransportError

from .conftest import ontology_from
from .oracles import embed_ref

texts = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]),
    min_size=1,
    max_size=60,
).filter(lambda t: t.strip())


class TestLocalEmbed:
    @settings(max_examples=150, deadline=None)
    @given(text=texts, dim=st.sampled_from([16, 64, 257]), seed=st.sampled_from([0, 7]))
    def test_matches_oracle(self, text, dim, seed):
        got = local_embed(text, dim, seed)
        want = embed_ref(text, dim, seed)
        assert got.dtype == np.float32
        assert got.shape == (dim,)
        assert np.array_equal(got, np.asarray(want, dtype=np.float32))

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(st.one_of(texts, st.text(alphabet="abc xyz", min_size=1, max_size=30)
                                 .filter(lambda t: t.strip())), min_size=1, max_size=12),
        block=st.integers(min_value=1, max_value=40),
        seed=st.sampled_from([0, 7]),
    )
    def test_batch_matches_single_and_oracle(self, batch, block, seed):
        # a small block budget puts texts on both sides of block boundaries
        provider = LocalTrigramProvider(
            ProviderSpec(LOCAL_PROVIDER_ID, f"trigram-d64-s{seed}", 64, seed=seed))
        with mock.patch.object(embedding_module, "_BLOCK_CHARS", block):
            rows = provider.embed_batch(batch)
        assert len(rows) == len(batch)
        for text, row in zip(batch, rows):
            want = np.asarray(embed_ref(text, 64, seed), dtype=np.float32)
            assert np.array_equal(row, local_embed(text, 64, seed))
            assert np.array_equal(row, want)

    @settings(max_examples=100, deadline=None)
    @given(text=texts, dim=st.sampled_from([16, 64]))
    def test_unit_norm(self, text, dim):
        norm = float(np.linalg.norm(local_embed(text, dim).astype(np.float64)))
        assert abs(norm - 1.0) < 1e-6

    def test_deterministic(self):
        a = local_embed("acetylsalicylic acid", 64)
        b = local_embed("acetylsalicylic acid", 64)
        assert np.array_equal(a, b)

    def test_case_and_whitespace_insensitive(self):
        a = local_embed("Aspirin   Tablet", 32)
        b = local_embed("aspirin tablet", 32)
        assert np.array_equal(a, b)

    def test_seed_changes_vector(self):
        a = local_embed("heparin", 64, seed=0)
        b = local_embed("heparin", 64, seed=1)
        assert not np.array_equal(a, b)

    def test_trigram_padding(self):
        # " a " is the one trigram of "a"; " ab" and "ab " are the two of "ab"
        one = local_embed("a", 64)
        assert np.count_nonzero(one) == 1 and one.max() == 1.0
        two = local_embed("ab", 64)
        assert np.count_nonzero(two) == 2
        assert np.array_equal(two[two > 0], np.full(2, 2 ** -0.5, dtype=np.float32))

    def test_batch_is_written_in_place(self):
        # one hash block of 2,048 short names: beside the rows it returns,
        # the batch holds its int64 counts and no float64 or float32 copy
        import tracemalloc

        names = [f"n{i:04x}" for i in range(2048)]
        assert sum(len(name) + 2 for name in names) <= embedding_module._BLOCK_CHARS
        provider = LocalTrigramProvider(ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d256-s0", 256))
        provider.embed_batch(names[:4])
        tracemalloc.start()
        try:
            rows = provider.embed_batch(names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counts = 8 * len(names) * 256
        assert peak < rows.nbytes + counts + (256 << 10)
        for name, row in zip(names, rows):
            assert np.array_equal(row, np.asarray(embed_ref(name, 256), dtype=np.float32))

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            local_embed("aspirin", 15)

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            local_embed("   ", 64)


class TestProviderSpec:
    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderSpec(REMOTE_PROVIDER_ID, "m", 64)

    def test_local_rejects_endpoint(self):
        with pytest.raises(ValueError):
            ProviderSpec(LOCAL_PROVIDER_ID, "m", 64, endpoint="https://x")

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            ProviderSpec(LOCAL_PROVIDER_ID, "m", 0)

    def test_local_dim_floor_checked_at_construction(self):
        with pytest.raises(ValueError, match="dim >= 16, got 15"):
            ProviderSpec(LOCAL_PROVIDER_ID, "m", 15)
        assert ProviderSpec(REMOTE_PROVIDER_ID, "m", 4, endpoint="https://x").dim == 4

    def test_local_model_id_names_dim_and_seed(self):
        assert ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d64-s3", 64, seed=3).seed == 3
        for model, dim, seed in (("m", 64, 0), ("trigram-d64-s0", 64, 1),
                                 ("trigram-d64-s0", 32, 0)):
            with pytest.raises(ValueError, match="local model id is 'trigram-d"):
                ProviderSpec(LOCAL_PROVIDER_ID, model, dim, seed=seed)
        # a remote id is the service's own
        assert ProviderSpec(REMOTE_PROVIDER_ID, "m", 64, endpoint="https://x").model_id == "m"

    def test_fingerprint(self):
        spec = ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d64-s0", 64)
        assert spec.fingerprint == (LOCAL_PROVIDER_ID, "trigram-d64-s0")


class TestVectorCache:
    def test_round_trip_exact(self, tmp_path):
        cache = VectorCache(tmp_path)
        vector = local_embed("aspirin", 64)
        key = VectorCache.key("p", "m", "aspirin")
        cache.put(key, vector)
        got = cache.get(key, 64)
        assert got.dtype == np.float32
        assert np.array_equal(got, vector)

    def test_miss_is_none(self, tmp_path):
        assert VectorCache(tmp_path).get("0" * 64, 4) is None

    def test_key_separates_fields(self):
        # provider/model/text must not be collapsible into each other
        assert VectorCache.key("a", "b", "c") != VectorCache.key("ab", "", "c")
        assert VectorCache.key("a", "b", "c") != VectorCache.key("a", "bc", "")


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = "", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload)
        if headers is not None:  # a stub without headers stands for a bare reply
            self.headers = headers

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    """Scripted stand-in for requests.Session; records every call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        reply = self.responses.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def remote_spec(dim: int = 4) -> ProviderSpec:
    return ProviderSpec(REMOTE_PROVIDER_ID, "embed-1", dim, endpoint="https://e.test/v1")


def embedding_payload(vectors):
    return {"data": [{"embedding": list(v)} for v in vectors]}


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    monkeypatch.setattr("conceptlinker.transport.time.sleep", lambda s: None)


class TestRemoteProvider:
    def test_batch_order_and_normalization(self):
        session = FakeSession([FakeResponse(200, embedding_payload([[2, 0, 0, 0], [0, 3, 0, 0]]))])
        provider = RemoteProvider(remote_spec(), session=session)
        out = provider.embed_batch(["alpha", "beta"])
        assert [v.dtype for v in out] == [np.float32, np.float32]
        np.testing.assert_allclose(out[0], [1, 0, 0, 0], atol=1e-7)
        np.testing.assert_allclose(out[1], [0, 1, 0, 0], atol=1e-7)
        assert session.calls[0]["json"] == {"model": "embed-1", "input": ["alpha", "beta"]}

    def test_cache_prevents_second_call(self, tmp_path):
        payload = embedding_payload([[1, 0, 0, 0]])
        session = FakeSession([FakeResponse(200, payload), FakeResponse(200, payload)])
        cache = VectorCache(tmp_path)
        provider = RemoteProvider(remote_spec(), cache=cache, session=session)
        first = provider.embed_batch(["alpha"])
        second = provider.embed_batch(["alpha"])
        assert len(session.calls) == 1
        assert np.array_equal(first[0], second[0])

    def test_server_error_retried(self):
        session = FakeSession(
            [FakeResponse(500, text="boom"), FakeResponse(200, embedding_payload([[1, 0, 0, 0]]))]
        )
        provider = RemoteProvider(remote_spec(), session=session)
        out = provider.embed_batch(["alpha"])
        assert len(session.calls) == 2
        assert out[0].shape == (4,)

    def test_rate_limit_retried_and_logged(self, caplog):
        session = FakeSession(
            [FakeResponse(429, text="slow down"), FakeResponse(200, embedding_payload([[1, 0, 0, 0]]))]
        )
        provider = RemoteProvider(remote_spec(), session=session)
        with caplog.at_level("WARNING"):
            out = provider.embed_batch(["alpha"])
        assert len(session.calls) == 2
        assert out[0].shape == (4,)
        assert "retry 1" in caplog.text

    def test_client_error_fails_fast(self):
        session = FakeSession([FakeResponse(403, text="denied")])
        provider = RemoteProvider(remote_spec(), session=session)
        with pytest.raises(TransportError) as exc:
            provider.embed_batch(["alpha"])
        assert exc.value.status == 403
        assert len(session.calls) == 1

    def test_transport_exhausts_attempts(self):
        session = FakeSession([requests.ConnectionError("down")] * 3)
        provider = RemoteProvider(remote_spec(), session=session)
        with pytest.raises(TransportError):
            provider.embed_batch(["alpha"])
        assert len(session.calls) == 3

    def test_malformed_reply(self):
        session = FakeSession([FakeResponse(200, {"unexpected": []})])
        provider = RemoteProvider(remote_spec(), session=session)
        with pytest.raises(TransportError):
            provider.embed_batch(["alpha"])

    def test_wrong_count_rejected(self):
        session = FakeSession([FakeResponse(200, embedding_payload([[1, 0, 0, 0]]))])
        provider = RemoteProvider(remote_spec(), session=session)
        with pytest.raises(TransportError):
            provider.embed_batch(["alpha", "beta"])

    def test_dim_mismatch_names_index(self, tmp_path):
        session = FakeSession(
            [FakeResponse(200, embedding_payload([[1, 0, 0, 0], [1, 0]]))]
        )
        cache = VectorCache(tmp_path)
        provider = RemoteProvider(remote_spec(), cache=cache, session=session)
        with pytest.raises(DimMismatch) as exc:
            provider.embed_batch(["alpha", "beta"])
        assert exc.value.index == 1
        # the batch is atomic: nothing may have been cached
        assert cache.get(VectorCache.key(REMOTE_PROVIDER_ID, "embed-1", "alpha"), 4) is None

    @pytest.mark.parametrize(
        "bad", [["x", 0, 0, 0], [[1], 0, 0, 0], "abcd", 5, None, {"a": 1}],
        ids=["string-item", "nested-item", "string", "number", "null", "object"],
    )
    def test_malformed_embedding_is_refused_and_never_cached(self, tmp_path, bad):
        payload = {"data": [{"embedding": [1, 0, 0, 0]}, {"embedding": bad}]}
        session = FakeSession([FakeResponse(200, payload)])
        provider = RemoteProvider(remote_spec(), cache=VectorCache(tmp_path), session=session)
        with pytest.raises(TransportError, match="malformed reply") as exc:
            provider.embed_batch(["alpha", "beta"])
        assert exc.value.status == 200
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "zero"])
    def test_non_finite_or_zero_reply_is_refused_and_never_cached(self, tmp_path, bad):
        broken = [0.0, 0.0, 0.0, 0.0] if bad == "zero" else [bad, 0.1, 0.2, 0.3]
        session = FakeSession([FakeResponse(200, embedding_payload([[1, 0, 0, 0], broken]))])
        cache = VectorCache(tmp_path)
        provider = RemoteProvider(remote_spec(), cache=cache, session=session)
        with pytest.raises(InvalidVector) as exc:
            provider.embed_batch(["alpha", "beta"])
        assert exc.value.index == 1
        # the valid first vector is not cached either: the reply is refused whole
        assert list(tmp_path.iterdir()) == []
        # so a second provider on the same cache has to ask the endpoint again
        fresh = FakeSession([FakeResponse(200, embedding_payload([[1, 0, 0, 0], [0, 1, 0, 0]]))])
        again = RemoteProvider(remote_spec(), cache=VectorCache(tmp_path), session=fresh)
        out = again.embed_batch(["alpha", "beta"])
        assert len(fresh.calls) == 1
        assert all(np.isfinite(v).all() for v in out)

    def test_bearer_header_from_env(self, monkeypatch):
        monkeypatch.setenv("LINKER_API_KEY", "sk-test")
        session = FakeSession([FakeResponse(200, embedding_payload([[1, 0, 0, 0]]))])
        RemoteProvider(remote_spec(), session=session).embed_batch(["alpha"])
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_no_header_without_env(self, monkeypatch):
        monkeypatch.delenv("LINKER_API_KEY", raising=False)
        session = FakeSession([FakeResponse(200, embedding_payload([[1, 0, 0, 0]]))])
        RemoteProvider(remote_spec(), session=session).embed_batch(["alpha"])
        assert "Authorization" not in session.calls[0]["headers"]

    def test_each_distinct_miss_is_sent_once(self, tmp_path):
        session = FakeSession([FakeResponse(200, embedding_payload([[2, 0, 0, 0], [0, 3, 0, 0]]))])
        provider = RemoteProvider(remote_spec(), cache=VectorCache(tmp_path), session=session)
        out = provider.embed_batch(["a", "b", "a", " a "])
        assert [call["json"]["input"] for call in session.calls] == [["a", "b"]]
        assert np.array_equal(out[0], out[2]) and np.array_equal(out[0], out[3])
        np.testing.assert_array_equal(out[:2], [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert len(list(tmp_path.iterdir())) == 2

    def test_repeated_text_errors_name_its_first_occurrence(self):
        session = FakeSession([FakeResponse(200, embedding_payload([[1, 0, 0, 0], [1, 0]]))])
        provider = RemoteProvider(remote_spec(), session=session)
        with pytest.raises(DimMismatch) as exc:
            provider.embed_batch(["a", "a", "b", "b"])
        assert exc.value.index == 2

    def test_empty_text_rejected_with_index(self):
        provider = RemoteProvider(remote_spec(), session=FakeSession([]))
        with pytest.raises(EmptyText) as exc:
            provider.embed_batch(["alpha", "  "])
        assert exc.value.index == 1


def test_embed_batch_returns_one_float32_matrix(tmp_path):
    local = LocalTrigramProvider(ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d64-s0", 64))
    cache = VectorCache(tmp_path)
    cache.put(VectorCache.key(REMOTE_PROVIDER_ID, "embed-1", "beta"),
              np.array([0, 0, 1, 0], dtype=np.float32))
    session = FakeSession([FakeResponse(200, embedding_payload([[2, 0, 0, 0], [0, 0, 0, 5]]))])
    remote = RemoteProvider(remote_spec(), cache=cache, session=session)
    for provider, batch in ((local, []), (local, ["alpha", "beta"]),
                            (remote, []), (remote, ["alpha", "beta", "gamma"])):
        out = provider.embed_batch(batch)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float32
        assert out.shape == (len(batch), provider.spec.dim)
    # the cache hit keeps its row between the two fetched ones, in one request
    assert session.calls[0]["json"]["input"] == ["alpha", "gamma"]
    np.testing.assert_array_equal(out, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


class EchoSession(FakeSession):
    """Answers every request with one embedding per input, or with its scripted failure."""

    def __init__(self, failures=None):
        super().__init__([])
        self.failures = dict(failures or {})  # call number -> reply

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        if len(self.calls) in self.failures:
            return self.failures[len(self.calls)]
        return FakeResponse(200, embedding_payload([[len(t), 1, 0, 0] for t in json["input"]]))


def test_remote_build_sends_one_bounded_post_per_slice(tmp_path):
    cache = VectorCache(tmp_path)
    cache.put(VectorCache.key(REMOTE_PROVIDER_ID, "embed-1", "name 1"),
              np.array([0, 0, 1, 0], dtype=np.float32))
    ontology = ontology_from("remote", [
        Concept(id=f"C{i}", name=f"name {i}", description="about" if i % 2 else None)
        for i in range(7)
    ])
    session = EchoSession()
    provider = RemoteProvider(remote_spec(), cache=cache, session=session)
    with mock.patch.object(embedding_module, "_SLICE_TEXTS", 3):
        memory = build_memory(ontology, provider)
    # names in slices of three, the cached "name 1" left out, then the contexts
    assert [call["json"]["input"] for call in session.calls] == [
        ["name 0", "name 2"], ["name 3", "name 4", "name 5"], ["name 6"],
        ["name 1: about", "name 3: about", "name 5: about"],
    ]
    assert len(memory) == 10


class TestRemoteSlices:
    """A direct embed_batch call posts its misses in bounded requests."""

    def test_distinct_misses_go_in_requests_of_at_most_a_slice(self):
        session = EchoSession()
        texts = [f"text {i}" for i in range(5000)]
        out = RemoteProvider(remote_spec(), session=session).embed_batch(texts)
        sent = [call["json"]["input"] for call in session.calls]
        assert [len(inputs) for inputs in sent] == [2048, 2048, 904]
        assert [t for inputs in sent for t in inputs] == texts
        np.testing.assert_allclose(out[4321], np.array([9, 1, 0, 0]) / np.sqrt(82), rtol=1e-6)

    @pytest.mark.parametrize("failure", [
        FakeResponse(400, text="bad request"),
        FakeResponse(200, {"data": [{"embedding": [1, 0, 0, 0]}]}),  # one row short
        FakeResponse(200, embedding_payload([[1, 0, 0, 0], [0, 0, 0, 0]])),  # a zero row
    ], ids=["http-400", "short-reply", "zero-row"])
    def test_failed_second_request_keeps_the_first_cached(self, tmp_path, failure):
        cache = VectorCache(tmp_path)
        session = EchoSession({2: failure})
        provider = RemoteProvider(remote_spec(), cache=cache, session=session)
        texts = ["a", "bb", "ccc", "dddd", "eeeee"]
        with mock.patch.object(embedding_module, "_SLICE_TEXTS", 2):
            with pytest.raises((TransportError, InvalidVector)) as exc:
                provider.embed_batch(texts)
        if isinstance(exc.value, InvalidVector):
            assert exc.value.index == 3  # named by its position in the caller's batch
        assert len(session.calls) == 2
        # the first slice is cached whole; nothing of the failed reply is
        assert len(list(tmp_path.iterdir())) == 2
        for text, length in (("a", 1), ("bb", 2)):
            hit = cache.get(VectorCache.key(REMOTE_PROVIDER_ID, "embed-1", text), 4)
            np.testing.assert_allclose(hit, np.array([length, 1, 0, 0]) / np.hypot(length, 1),
                                       rtol=1e-6)
        # a rerun posts only what the first slice did not cover
        again = EchoSession()
        with mock.patch.object(embedding_module, "_SLICE_TEXTS", 2):
            RemoteProvider(remote_spec(), cache=cache, session=again).embed_batch(texts)
        assert [call["json"]["input"] for call in again.calls] == [["ccc", "dddd"], ["eeeee"]]


def test_integer_too_large_for_a_float_is_a_malformed_reply(tmp_path):
    huge = 10 ** 400
    reply = FakeResponse(200, embedding_payload([[1, 0, 0, 0], [huge, 1, 0, 0]]))
    session = EchoSession({1: reply})
    provider = RemoteProvider(remote_spec(), cache=VectorCache(tmp_path), session=session)
    with pytest.raises(TransportError) as exc:
        provider.embed_batch(["a", "bb"])
    assert exc.value.status == 200
    assert "malformed reply: embedding 1" in str(exc.value)
    # the reply's good first row is not cached either
    assert list(tmp_path.iterdir()) == []


def test_always_failing_post_pauses_once_per_retry(monkeypatch):
    slept = []
    monkeypatch.setattr("conceptlinker.transport.time.sleep", slept.append)
    session = FakeSession([FakeResponse(500, text="boom")] * 10)
    with pytest.raises(TransportError):
        transport.post_json(session, "https://e.test/v1", {}, 1.0)
    assert len(session.calls) == transport.RETRY_ATTEMPTS == 3
    assert slept == list(transport.RETRY_BACKOFF_S)


@pytest.mark.parametrize("spoil", [
    lambda blob: blob[:10],
    lambda blob: b"XXXX" + blob[4:],
    lambda blob: blob[:-1],
    lambda blob: _CACHE_HEADER.pack(CACHE_MAGIC, 8) + np.ones(8, dtype="<f4").tobytes(),
], ids=["truncated", "bad-magic", "short-body", "another-dim"])
def test_cache_entry_that_is_not_whole_is_fetched_again(tmp_path, caplog, spoil):
    texts = ["alpha", "beta", "gamma"]
    clean, spoilt = tmp_path / "clean", tmp_path / "spoilt"
    for root in (clean, spoilt):
        want = RemoteProvider(remote_spec(), cache=VectorCache(root),
                              session=EchoSession()).embed_batch(texts)
    key = VectorCache.key(REMOTE_PROVIDER_ID, "embed-1", "beta")
    (spoilt / key).write_bytes(spoil((spoilt / key).read_bytes()))

    session = EchoSession()
    with caplog.at_level("WARNING"):
        got = RemoteProvider(remote_spec(), cache=VectorCache(spoilt),
                             session=session).embed_batch(texts)
    # one request, for that text alone, and its entry rewritten
    assert [call["json"]["input"] for call in session.calls] == [["beta"]]
    assert key in caplog.text
    assert np.array_equal(got, want)
    assert {path.name: path.read_bytes() for path in spoilt.iterdir()} == {
        path.name: path.read_bytes() for path in clean.iterdir()}


def test_spec_of_another_dim_over_a_warm_cache_fails_after_one_request(tmp_path, caplog):
    texts = ["alpha", "beta"]
    RemoteProvider(remote_spec(), cache=VectorCache(tmp_path),
                   session=EchoSession()).embed_batch(texts)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    session = EchoSession()  # replies at dim 4
    with caplog.at_level("WARNING"), pytest.raises(DimMismatch):
        RemoteProvider(remote_spec(8), cache=VectorCache(tmp_path),
                       session=session).embed_batch(texts)
    assert [call["json"]["input"] for call in session.calls] == [texts]
    assert caplog.text.count("is not a whole dim-8 vector") == 2
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_each_provider_class_refuses_another_kinds_spec():
    local_spec = ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d64-s0", 64)
    for spec in (remote_spec(), ProviderSpec("nope", "m", 64)):
        with pytest.raises(ValueError, match="not a local spec"):
            LocalTrigramProvider(spec)
    for spec in (local_spec, ProviderSpec("nope", "m", 64)):
        with pytest.raises(ValueError, match="not a remote spec"):
            RemoteProvider(spec, session=FakeSession([]))


def test_remote_provider_builds_a_requests_session_when_given_none():
    provider = RemoteProvider(remote_spec())
    assert type(provider.session) is requests.Session
    provider.session.close()


class TestRetryAfter:
    """A 429 or 503 may ask for its pause; anything else keeps the fixed backoff."""

    @pytest.fixture
    def pauses(self, monkeypatch):
        slept = []
        monkeypatch.setattr("conceptlinker.transport.time.sleep", slept.append)
        return slept

    def embed(self, *failures):
        ok = FakeResponse(200, embedding_payload([[1, 0, 0, 0]]))
        session = FakeSession([*failures, ok])
        RemoteProvider(remote_spec(), session=session).embed_batch(["alpha"])
        return session

    @pytest.mark.parametrize("status", [429, 503])
    def test_delay_seconds_are_honoured(self, pauses, status, caplog):
        with caplog.at_level("WARNING"):
            self.embed(FakeResponse(status, text="wait", headers={"Retry-After": "7"}))
        assert pauses == [7.0]
        assert "after 7s" in caplog.text

    def test_pause_is_capped(self, pauses):
        self.embed(FakeResponse(429, text="wait", headers={"Retry-After": "3600"}))
        assert pauses == [transport.RETRY_AFTER_CAP_S]

    @pytest.mark.parametrize("headers", [
        {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"},
        {"Retry-After": "-5"},
        {"Retry-After": "1.5"},
        {"Retry-After": "soon"},
        {},
        None,
    ], ids=["http-date", "negative", "fraction", "junk", "missing", "no-headers"])
    def test_other_values_fall_back_to_backoff(self, pauses, headers):
        self.embed(FakeResponse(429, text="wait", headers=headers),
                   FakeResponse(503, text="wait", headers=headers))
        assert pauses == list(transport.RETRY_BACKOFF_S[:2])

    def test_only_429_and_503_are_asked(self, pauses):
        self.embed(FakeResponse(500, text="boom", headers={"Retry-After": "7"}))
        assert pauses == [transport.RETRY_BACKOFF_S[0]]

    def test_pauses_of_one_request_are_capped_in_all(self, pauses, caplog):
        with caplog.at_level("WARNING"):
            self.embed(FakeResponse(429, text="wait", headers={"Retry-After": "120"}),
                       FakeResponse(503, text="wait", headers={"Retry-After": "120"}))
        assert pauses == [transport.RETRY_AFTER_CAP_S, 0.0]
        assert sum(pauses) == transport.RETRY_AFTER_CAP_S == 30.0
        assert "retry 2 of POST https://e.test/v1 after 0s" in caplog.text

    def test_a_later_pause_is_cut_to_what_is_left(self, pauses, caplog):
        with caplog.at_level("WARNING"):
            self.embed(FakeResponse(429, text="wait", headers={"Retry-After": "20"}),
                       FakeResponse(429, text="wait", headers={"Retry-After": "20"}))
        assert pauses == [20.0, 10.0]
        assert "after 10s" in caplog.text

    def test_fixed_backoff_is_not_cut(self, pauses):
        self.embed(FakeResponse(500, text="boom"), FakeResponse(502, text="boom"))
        assert pauses == [1.0, 2.0] == list(transport.RETRY_BACKOFF_S)

    def test_each_pause_comes_from_its_own_reply(self, pauses):
        self.embed(FakeResponse(503, text="wait", headers={"Retry-After": "0"}),
                   FakeResponse(500, text="boom"))
        assert pauses == [0.0, transport.RETRY_BACKOFF_S[1]]
