"""Memory construction, cosine, top-k retrieval, and the store file format."""

from __future__ import annotations

import functools
import json
import math
import random
import re
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conceptlinker import (
    Memory,
    Ontology,
    Query,
    Variant,
    build_memory,
    concept_text,
    cosine,
    load_memory,
    query_text,
    retrieve_batch,
    retrieve_for_queries,
    save_memory,
)
from conceptlinker import embedding as embedding_module
from conceptlinker import memory as memory_module
from conceptlinker.errors import (
    BadMagic,
    DimMismatch,
    EmptyOntology,
    EmptyText,
    FingerprintMismatch,
    InvalidVector,
    MemoryBuildError,
    MemoryLayoutError,
    ServiceError,
    VersionMismatch,
)

from .conftest import (
    Concept,
    concepts_of,
    local_provider,
    memory_from_rows,
    memory_rows,
    ontology_from,
    queries_for,
    synthetic_ontology,
)
from .oracles import cosine_ref, retrieve_ref


def small_ontology() -> Ontology:
    return ontology_from("demo", [
        Concept(id="C1", name="Aspirin", description="pain and fever relief"),
        Concept(id="C2", name="Heparin", description="anticoagulant"),
        Concept(id="C3", name="Fever"),
    ])


class TestTexts:
    def test_concept_text(self):
        assert concept_text("Aspirin", "pain relief") == "Aspirin: pain relief"
        assert concept_text("Fever", None) == "Fever"

    def test_query_text(self):
        with_ctx = Query(id="q", mention="aspirin", context="for headache")
        without = Query(id="q", mention="aspirin")
        assert query_text(with_ctx) == "aspirin: for headache"
        assert query_text(without) == "aspirin"


class TestBuildMemory:
    def test_entry_accounting_and_order(self):
        provider = local_provider(dim=32)
        memory = build_memory(small_ontology(), provider)
        # N + M: 3 concepts, 2 described
        assert len(memory) == 5
        got = [(cid, variant) for cid, variant, _ in memory_rows(memory)]
        assert got == [
            ("C1", Variant.NAME_ONLY), ("C1", Variant.NAME_WITH_CONTEXT),
            ("C2", Variant.NAME_ONLY), ("C2", Variant.NAME_WITH_CONTEXT),
            ("C3", Variant.NAME_ONLY),
        ]

    def test_vectors_match_provider(self):
        provider = local_provider(dim=32)
        memory = build_memory(small_ontology(), provider)
        name_vec = provider.embed_batch(["Aspirin"])[0]
        ctx_vec = provider.embed_batch(["Aspirin: pain and fever relief"])[0]
        rows = memory_rows(memory)
        assert np.array_equal(rows[0][2], name_vec)
        assert np.array_equal(rows[1][2], ctx_vec)

    def test_metadata(self):
        provider = local_provider(dim=32)
        memory = build_memory(small_ontology(), provider)
        assert memory.dim == 32
        assert memory.provider_fingerprint == provider.spec.fingerprint

    def test_empty_ontology_rejected(self):
        with pytest.raises(EmptyOntology):
            build_memory(ontology_from("empty", []), local_provider())

    def test_accounting_over_random_ontologies(self, rng):
        provider = local_provider(dim=32)
        for _ in range(5):
            onto = synthetic_ontology(rng, rng.randint(5, 60))
            described = sum(1 for description in onto.descriptions if description)
            memory = build_memory(onto, provider)
            assert len(memory) == len(onto) + described

    def test_embedding_failure_names_concept(self):
        class Boom:
            spec = local_provider(dim=32).spec

            def embed_batch(self, texts):
                from conceptlinker.errors import EmptyText
                raise EmptyText(index=1)

        with pytest.raises(MemoryBuildError) as exc:
            build_memory(small_ontology(), Boom())
        assert exc.value.concept_id == "C2"


words = st.text(alphabet="abcde ", min_size=1, max_size=12).filter(str.strip)
concept_rows = st.lists(st.tuples(words, st.none() | words), min_size=1, max_size=20)


def ontology_of(rows) -> Ontology:
    return ontology_from("sliced", [
        Concept(id=f"C{i:02d}", name=name, description=description)
        for i, (name, description) in enumerate(rows)
    ])


class TestSlicedEmbedding:
    """Build and query embedding go to the provider in slices; output does not change."""

    @settings(max_examples=40, deadline=None)
    @given(rows=concept_rows)
    def test_build_bytes_do_not_depend_on_slice(self, tmp_path_factory, rows):
        ontology = ontology_of(rows)
        provider = local_provider(dim=32)
        root = tmp_path_factory.mktemp("sliced")
        save_memory(build_memory(ontology, provider), root / "whole.bin")
        for size in (1, 3, 7):
            with mock.patch.object(embedding_module, "_SLICE_TEXTS", size):
                save_memory(build_memory(ontology, provider), root / f"{size}.bin")
            assert (root / f"{size}.bin").read_bytes() == (root / "whole.bin").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=concept_rows, mentions=st.lists(st.tuples(words, st.none() | words),
                                                min_size=1, max_size=20))
    def test_sliced_retrieval_equals_one_batch(self, rows, mentions):
        provider = local_provider(dim=32)
        memory = build_memory(ontology_of(rows), provider)
        queries = [Query(id=f"q{i}", mention=m, context=c) for i, (m, c) in enumerate(mentions)]
        whole = retrieve_batch(memory, provider.embed_batch([query_text(q) for q in queries]), 4)
        for size in (1, 3, 7):
            with mock.patch.object(embedding_module, "_SLICE_TEXTS", size):
                assert retrieve_for_queries(memory, queries, provider, 4) == whole

    def test_no_call_exceeds_the_slice(self):
        sizes = []
        inner = local_provider(dim=32)

        class Recording:
            spec = inner.spec

            def embed_batch(self, texts):
                sizes.append(len(texts))
                return inner.embed_batch(texts)

        ontology = ontology_of([(f"name {i}", "context" if i % 2 else None) for i in range(7)])
        with mock.patch.object(embedding_module, "_SLICE_TEXTS", 3):
            build_memory(ontology, Recording())
            retrieve_for_queries(build_memory(ontology, inner),
                                 [Query(id=f"q{i}", mention="name") for i in range(5)],
                                 Recording(), 2)
        # 7 names, then 3 contexts, then 5 queries
        assert sizes == [3, 3, 1, 3, 3, 2]

    @pytest.mark.parametrize("failing, concept_id", [
        ("name 4", "C04"),  # second slice of names, its second text
        ("name 7: about 7", "C07"),  # second slice of contexts, its first text
    ])
    def test_failure_in_a_later_slice_names_its_concept(self, failing, concept_id):
        inner = local_provider(dim=32)

        class FailsOnOneText:
            spec = inner.spec

            def embed_batch(self, texts):
                if failing in texts:
                    raise EmptyText(index=texts.index(failing))
                return inner.embed_batch(texts)

        # C01, C03, C05 and C07 are described, so C07's context is fourth of four
        ontology = ontology_of([(f"name {i}", f"about {i}" if i % 2 else None) for i in range(8)])
        with mock.patch.object(embedding_module, "_SLICE_TEXTS", 3):
            with pytest.raises(MemoryBuildError) as exc:
                build_memory(ontology, FailsOnOneText())
        assert exc.value.concept_id == concept_id


class TestProviderBatchShape:
    """Every provider batch must hold one row of the memory's dim per text."""

    @staticmethod
    def reshaped(rows: int, cols: int):
        inner = local_provider(dim=32)

        class Reshaped:
            spec = inner.spec

            def embed_batch(self, texts):
                # `rows` more rows and `cols` more columns than asked for, either may be negative
                return np.resize(inner.embed_batch(texts), (len(texts) + rows, 32 + cols))

        return inner, Reshaped()

    @pytest.mark.parametrize("rows", [-1, -3, 1])
    def test_build_refuses_a_batch_of_another_length(self, rows):
        _, provider = self.reshaped(rows, 0)
        with pytest.raises(ServiceError, match=f"returned {3 + rows} rows for 3 texts"):
            build_memory(small_ontology(), provider)

    @pytest.mark.parametrize("rows", [-1, -6, 2])
    def test_retrieval_refuses_a_batch_of_another_length(self, rows):
        inner, provider = self.reshaped(rows, 0)
        memory = build_memory(small_ontology(), inner)
        queries = [Query(id=f"q{i}", mention=f"aspirin {i}") for i in range(6)]
        with pytest.raises(ServiceError, match=f"returned {6 + rows} rows for 6 texts"):
            retrieve_for_queries(memory, queries, provider, 2)

    @pytest.mark.parametrize("rows", [-1, 0])
    @pytest.mark.parametrize("cols", [-1, 1])
    def test_a_row_of_another_dim_stays_a_dim_mismatch(self, rows, cols):
        inner, provider = self.reshaped(rows, cols)
        with pytest.raises(DimMismatch, match=f"expected 32, got {32 + cols}"):
            build_memory(small_ontology(), provider)
        memory = build_memory(small_ontology(), inner)
        with pytest.raises(DimMismatch, match=f"expected 32, got {32 + cols}"):
            retrieve_for_queries(memory, [Query(id="q0", mention="aspirin")], provider, 2)


unit_vectors = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: np.random.default_rng(seed).normal(size=24)
).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestCosine:
    @settings(max_examples=100, deadline=None)
    @given(v=unit_vectors)
    def test_self_similarity_exact(self, v):
        f32 = v.astype(np.float32)
        assert abs(cosine(f32, f32) - 1.0) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(a=unit_vectors, b=unit_vectors)
    def test_matches_oracle_and_bounds(self, a, b):
        got = cosine(a, b)
        assert -1.0 <= got <= 1.0
        assert abs(got - cosine_ref(a, b)) < 1e-9
        assert got.hex() == cosine_ref(a, b).hex()

    @settings(max_examples=50, deadline=None)
    @given(a=unit_vectors, b=unit_vectors)
    def test_symmetric(self, a, b):
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)

    def test_orthogonal_and_opposite(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert cosine(a, b) == pytest.approx(0.0, abs=1e-12)
        assert cosine(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine(np.ones(3), np.ones(4))

    def test_wrong_rank_names_its_shape(self):
        with pytest.raises(ValueError, match=r"shapes \(2, 16\) and \(2, 16\)"):
            cosine(np.ones((2, 16)), np.ones((2, 16)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("position", [0, 1])
    # at 1e154 each square is finite but their sum is not; at 2e154 the squares overflow
    @pytest.mark.parametrize("big", [1e154, 2e154])
    def test_argument_whose_squares_overflow_rejected(self, position, big):
        args = [np.ones(2), np.ones(2)]
        args[position] = np.full(2, big)
        with pytest.raises(InvalidVector) as exc:
            cosine(*args)
        assert exc.value.index == position


class TestRetrieveTopK:
    def build(self, rng: random.Random, n: int):
        onto = synthetic_ontology(rng, n)
        provider = local_provider(dim=32)
        memory = build_memory(onto, provider)
        return onto, provider, memory

    def test_matches_oracle_randomized(self, rng):
        onto, provider, memory = self.build(rng, 80)
        entries = [(cid, vector) for cid, _, vector in memory_rows(memory)]
        for _ in range(10):
            concept = rng.choice(concepts_of(onto))
            qv = provider.embed_batch([concept.name])[0]
            for k in (1, 5, 10):
                got = retrieve_batch(memory, [qv], k)[0]
                want = retrieve_ref(entries, qv, k)
                assert [c.concept_id for c in got] == [cid for cid, _ in want]
                for cand, (_, score) in zip(got, want):
                    assert abs(cand.score - score) < 1e-9

    def test_exact_name_scores_one(self, rng):
        onto, provider, memory = self.build(rng, 30)
        concept = concepts_of(onto)[7]
        qv = provider.embed_batch([concept.name])[0]
        top = retrieve_batch(memory, [qv], 1)[0][0]
        assert top.concept_id == concept.id
        assert top.score == pytest.approx(1.0, abs=1e-9)

    def test_distinct_concepts_and_descending(self, rng):
        onto, provider, memory = self.build(rng, 50)
        qv = provider.embed_batch([onto.names[0]])[0]
        got = retrieve_batch(memory, [qv], 10)[0]
        ids = [c.concept_id for c in got]
        assert len(ids) == len(set(ids))
        scores = [c.score for c in got]
        assert scores == sorted(scores, reverse=True)

    def test_k_clamped_to_concept_count(self, rng):
        onto, provider, memory = self.build(rng, 4)
        qv = provider.embed_batch(["anything at all"])[0]
        assert len(retrieve_batch(memory, [qv], 10)[0]) == 4

    def test_k_validation(self, rng):
        _, provider, memory = self.build(rng, 4)
        with pytest.raises(ValueError):
            retrieve_batch(memory, [provider.embed_batch(["x"])[0]], 0)

    def test_query_dim_checked(self, rng):
        _, _, memory = self.build(rng, 4)
        with pytest.raises(DimMismatch):
            retrieve_batch(memory, [np.ones(16)], 3)

    def test_query_rank_checked(self, rng):
        # a lone vector of the memory's dim is not a batch of queries
        _, _, memory = self.build(rng, 4)
        for shape in [(memory.dim,), (1, 2, memory.dim), ()]:
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                retrieve_batch(memory, np.ones(shape), 1)

    def test_empty_batch_returns_no_slates(self, rng):
        _, _, memory = self.build(rng, 4)
        for queries in [[], np.ones((0,)), np.ones((0, memory.dim))]:
            assert retrieve_batch(memory, queries, 1) == []

    def test_variant_tie_prefers_name_only(self):
        # both variants of C1 hold the identical vector: exact tie
        v = np.zeros(16, dtype=np.float32)
        v[0] = 1.0
        entries = [
            ("C1", Variant.NAME_ONLY, v),
            ("C1", Variant.NAME_WITH_CONTEXT, v),
        ]
        memory = memory_from_rows(entries, 16)
        top = retrieve_batch(memory, [v], 1)[0][0]
        assert top.variant is Variant.NAME_ONLY
        assert top.score == pytest.approx(1.0, abs=1e-12)

    def test_concept_tie_breaks_by_id(self):
        v = np.zeros(16, dtype=np.float32)
        v[3] = 1.0
        entries = [
            ("B", Variant.NAME_ONLY, v),
            ("A", Variant.NAME_ONLY, v),
        ]
        memory = memory_from_rows(entries, 16)
        assert [c.concept_id for c in retrieve_batch(memory, [v], 2)[0]] == ["A", "B"]

    def test_best_variant_wins(self):
        q = np.zeros(16, dtype=np.float32)
        q[0] = 1.0
        near = np.zeros(16, dtype=np.float32)
        near[0], near[1] = 1.0, 0.2
        far = np.zeros(16, dtype=np.float32)
        far[1] = 1.0
        entries = [
            ("C1", Variant.NAME_ONLY, far),
            ("C1", Variant.NAME_WITH_CONTEXT, near),
        ]
        memory = memory_from_rows(entries, 16)
        top = retrieve_batch(memory, [q], 1)[0][0]
        assert top.variant is Variant.NAME_WITH_CONTEXT
        assert top.score == pytest.approx(cosine_ref(near, q), abs=1e-9)


    def test_bit_identical_vectors_tie_exactly_across_the_store(self):
        # twins at the first and the last of 1201 rows: the matrix product
        # reaches them through different kernel paths, exact rescoring does not
        gen = np.random.default_rng(7)
        vectors = gen.normal(size=(1201, 64)).astype(np.float32)
        vectors[-1] = vectors[0]
        ids = ["twin-b"] + [f"C{i:04d}" for i in range(1, 1200)] + ["twin-a"]
        entries = [(cid, Variant.NAME_ONLY, v) for cid, v in zip(ids, vectors)]
        memory = memory_from_rows(entries, 64)
        queries = vectors[0] + 0.1 * gen.normal(size=(20, 64))
        batch = retrieve_batch(memory, queries, 2)
        for query, slate in zip(queries, batch):
            for top in (slate, retrieve_batch(memory, [query], 2)[0]):
                assert [c.concept_id for c in top] == ["twin-a", "twin-b"]
                assert top[0].score == top[1].score == cosine_ref(vectors[0], query)

    @pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
    def test_invalid_query_vector_rejected(self, rng, bad):
        _, provider, memory = self.build(rng, 10)
        qv = provider.embed_batch(["aspirin"])[0].copy()
        if bad == "zero":
            qv[:] = 0.0
        else:
            qv[5] = float(bad)
        with pytest.raises(InvalidVector):
            retrieve_batch(memory, [qv], 3)[0]

    def test_query_whose_squares_overflow_rejected(self, rng):
        _, provider, memory = self.build(rng, 10)
        queries = np.repeat(provider.embed_batch(["aspirin"]).astype(np.float64), 3, axis=0)
        queries[1] = 1e154  # each square is finite, their sum is not
        with pytest.raises(InvalidVector) as exc:
            retrieve_batch(memory, queries, 3)
        assert exc.value.index == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_whose_squares_overflow_rejected_without_warning(self, rng):
        _, provider, memory = self.build(rng, 10)
        queries = np.repeat(provider.embed_batch(["aspirin"]).astype(np.float64), 3, axis=0)
        queries[2] = 2e154  # the squares themselves pass the largest float
        with pytest.raises(InvalidVector) as exc:
            retrieve_batch(memory, queries, 3)
        assert exc.value.index == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_every_score_is_cosine_of_its_winning_entry_bit_for_bit(self, seed):
        # few distinct vectors, so exact ties abound within and across concepts
        gen = np.random.default_rng(seed)
        dim, concepts = [8, 16, 48, 200][seed], 300
        pool = gen.normal(size=(12, dim)).astype(np.float32)
        described = gen.random(concepts) < 0.6
        index = np.repeat(np.arange(concepts), 1 + described)
        codes = np.concatenate([[0, 1][: 1 + d] for d in described]).astype(np.uint8)
        vectors = pool[gen.integers(0, len(pool), len(index))]
        ids = [f"C{i:04d}" for i in gen.permutation(concepts)]
        memory = Memory(ids, described, vectors, dim, ("p", "m"))
        queries = np.concatenate([pool[:4], pool[4:8] + 0.05 * gen.normal(size=(4, dim)),
                                  gen.normal(size=(4, dim))])
        for query, slate in zip(queries, retrieve_batch(memory, queries, 25)):
            for candidate in slate:
                rows = np.flatnonzero(index == ids.index(candidate.concept_id)).tolist()
                scores = [cosine(vectors[row], query) for row in rows]
                winner = rows[scores.index(max(scores))]  # the earlier entry on a tie
                assert candidate.variant.value == ("n", "nc")[codes[winner]]
                assert candidate.score.hex() == cosine(vectors[winner], query).hex()


def _homonym_ontology() -> Ontology:
    """Few distinct names and description words, so exact score ties abound."""
    rng = random.Random(11)
    words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(5)) for _ in range(8)]
    names = [f"{a} {b}" for a, b in zip(words, words[1:] + words[:1])]
    return ontology_from("homonyms", [
        Concept(id=f"H{i:03d}", name=rng.choice(names),
                description=" ".join(rng.sample(words, 3)) if rng.random() < 0.5 else None)
        for i in range(60)
    ])


@functools.lru_cache(maxsize=None)
def _homonym_store():
    provider = local_provider(dim=32)
    memory = build_memory(_homonym_ontology(), provider)
    return provider, memory, [(cid, vector) for cid, _, vector in memory_rows(memory)]


class TestBatchRetrieval:
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(["aspirin", "fever", "heparin"]
                                     + list(_homonym_ontology().names)),
                     min_size=1, max_size=3).map(" ".join),
            min_size=1, max_size=12,
        ),
        k=st.integers(min_value=1, max_value=70),
        chunk=st.integers(min_value=1, max_value=5),
    )
    def test_batch_equals_single_query_and_oracle(self, texts, k, chunk):
        provider, memory, entries = _homonym_store()
        queries = [Query(id=f"q{i}", mention=text) for i, text in enumerate(texts)]
        # a block of `chunk` queries, so batches cross chunk boundaries
        with mock.patch.object(memory_module, "_BLOCK_BYTES", 4 * len(memory) * chunk):
            batch = retrieve_for_queries(memory, queries, provider, k)
        assert len(batch) == len(queries)
        for query, slate in zip(queries, batch):
            qv = provider.embed_batch([query_text(query)])[0]
            assert slate == retrieve_batch(memory, [qv], k)[0]
            assert [(c.concept_id, c.score) for c in slate] == retrieve_ref(entries, qv, k)

    def test_empty_batch(self):
        provider, memory, _ = _homonym_store()
        assert retrieve_for_queries(memory, [], provider, 5) == []


_VARIANTS_CYCLE = (Variant.NAME_ONLY, Variant.NAME_WITH_CONTEXT)


def _ref_slates(memory: Memory, queries, k: int) -> list[list[tuple[str, float, Variant]]]:
    """retrieve_ref with the winning variant: the earliest entry at its concept's best."""
    slates = []
    for query in queries:
        best: dict[str, tuple[float, Variant]] = {}
        for concept_id, variant, vector in memory_rows(memory):
            score = cosine_ref(vector, query)
            if concept_id not in best or score > best[concept_id][0]:
                best[concept_id] = (score, variant)
        ranked = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))[:k]
        slates.append([(cid, score, variant) for cid, (score, variant) in ranked])
    return slates


def _slates(memory: Memory, queries, k: int) -> list[list[tuple[str, float, Variant]]]:
    return [[(c.concept_id, c.score, c.variant) for c in slate]
            for slate in retrieve_batch(memory, queries, k)]


def _ref_picks(memory: Memory, queries: np.ndarray, k: int) -> set[tuple[int, int]]:
    """The (query, entry) pairs the pick rule keeps, one query at a time.

    An entry is kept when its float32 selection score is within the margin
    of its own concept's best and of the k-th best concept's. The queries
    must be unit vectors whose products with every entry are exact in float32.
    """
    margin = memory_module._score_margin(memory.dim)
    concept_of = [c for c, flag in enumerate(memory.has_context.tolist()) for _ in range(1 + flag)]
    picks = set()
    for q, query in enumerate(queries):
        scores = []
        for vector in memory.vectors.astype(np.float64):
            inverse_norm = np.float32(1.0 / math.sqrt(np.dot(vector, vector)))
            scores.append(float(np.float32(np.dot(vector, query)) * inverse_norm))
        best: dict[int, float] = {}
        for c, score in zip(concept_of, scores):
            best[c] = max(best.get(c, -math.inf), score)
        kth = sorted(best.values(), reverse=True)[min(k, len(best)) - 1]
        picks |= {(q, e) for e, (c, score) in enumerate(zip(concept_of, scores))
                  if score >= kth - margin and score >= best[c] - margin}
    return picks


class TestEntrySelection:
    """The float32 entry-level selection against the plain-Python oracle."""

    @staticmethod
    def runs_memory(seed: int, runs: list[int], dim: int = 24) -> tuple[Memory, np.ndarray]:
        """Concepts with the given entry counts; entries of a concept cluster together."""
        gen = np.random.default_rng(seed)
        entries = []
        for c, run in enumerate(runs):
            centre = gen.normal(size=dim)
            for r in range(run):
                vector = (centre + 0.3 * gen.normal(size=dim)).astype(np.float32)
                entries.append((f"C{c:03d}", _VARIANTS_CYCLE[r % 2], vector))
        memory = memory_from_rows(entries, dim)
        queries = memory.vectors[::7].astype(np.float64)
        return memory, queries + 0.2 * gen.normal(size=queries.shape)

    def test_best_entries_crowded_by_two_concepts(self):
        # two concepts own the 4 best entries; the third concept is found only
        # because selection keeps k * max_run entries, not k
        gen = np.random.default_rng(5)
        query = gen.normal(size=16)
        entries = []
        for cid in ("A", "B"):
            for r in range(2):
                near = (query + 0.01 * gen.normal(size=16)).astype(np.float32)
                entries.append((cid, _VARIANTS_CYCLE[r % 2], near))
        for c in range(30):
            entries.append((f"F{c:02d}", Variant.NAME_ONLY,
                            gen.normal(size=16).astype(np.float32)))
        memory = memory_from_rows(entries, 16)
        got = _slates(memory, query[None, :], 3)
        assert got == _ref_slates(memory, [query], 3)
        assert [cid for cid, _, _ in got[0][:2]] in (["A", "B"], ["B", "A"])

    def test_one_ulp_apart_ranks_by_exact_score(self):
        # one float32 ulp in one component: the float32 scores of the pair tie
        # or, with these seeds, often come out in the wrong order; only the
        # exact rescore orders them
        gen = np.random.default_rng(13)
        dim = 32
        base = gen.normal(size=dim).astype(np.float32)
        bumped = base.copy()
        bumped[1] = np.nextafter(base[1], np.float32(np.inf))
        queries = base + 0.05 * gen.normal(size=(20, dim))
        filler = [(f"F{i:03d}", Variant.NAME_ONLY, v)
                  for i, v in enumerate(gen.normal(size=(200, dim)).astype(np.float32))]
        for query in queries:
            low, high = sorted([base, bumped], key=lambda v: cosine_ref(v, query))
            gap = cosine_ref(high, query) - cosine_ref(low, query)
            assert 0.0 < gap < memory_module._score_margin(dim)
            # two concepts: the better vector has the later id, so an id
            # tie-break would misorder them
            pair = memory_from_rows([("Z", Variant.NAME_ONLY, high),
                                     ("A", Variant.NAME_ONLY, low)] + filler, dim)
            want = [("Z", cosine_ref(high, query)), ("A", cosine_ref(low, query))]
            for k in (1, 2):
                top = retrieve_batch(pair, [query], k)[0]
                assert [(c.concept_id, c.score) for c in top] == want[:k]
            # one concept: the better vector is its second entry, so the
            # earlier-entry tie rule would pick the wrong variant
            one = memory_from_rows([("P", Variant.NAME_ONLY, low),
                                    ("P", Variant.NAME_WITH_CONTEXT, high)] + filler, dim)
            top = retrieve_batch(one, [query], 1)[0][0]
            assert (top.concept_id, top.score, top.variant) == (
                "P", cosine_ref(high, query), Variant.NAME_WITH_CONTEXT)

    @pytest.mark.parametrize("extra", [0, 1, 7])
    def test_k_at_or_above_concept_count(self, extra):
        runs = [1, 2, 2, 1, 2, 1]
        memory, queries = self.runs_memory(9, runs)
        k = len(runs) + extra
        got = _slates(memory, queries, k)
        assert all(len(slate) == len(runs) for slate in got)
        assert got == _ref_slates(memory, queries, k)

    def test_query_opposite_to_every_entry(self):
        # every score sits near -1, where exact scores may clip
        gen = np.random.default_rng(2)
        query = gen.normal(size=16)
        entries = [(f"C{c}", _VARIANTS_CYCLE[r], (-query * (1 + c + r)
                                                  + 1e-4 * gen.normal(size=16))
                    .astype(np.float32))
                   for c in range(6) for r in range(2)]
        memory = memory_from_rows(entries, 16)
        for k in (1, 4):
            assert _slates(memory, query[None, :], k) == _ref_slates(memory, [query], k)

    def test_thousands_of_exact_ties_at_the_kth_score(self):
        # 2,100 homonyms share one name vector; four concepts score above it
        # and 400 below, so for small k the k-th score is a 2,100-way exact tie
        gen = np.random.default_rng(21)
        dim = 32
        query = gen.normal(size=dim)
        homonym = (query + 0.6 * gen.normal(size=dim)).astype(np.float32)
        vectors = {f"L{i}": [query + 0.05 * gen.normal(size=dim)] for i in range(4)}
        for i in range(2100):
            vectors[f"H{i:04d}"] = [homonym] + ([gen.normal(size=dim)] if i % 3 == 0 else [])
        for i in range(400):
            vectors[f"F{i:03d}"] = [gen.normal(size=dim)]
        order = list(vectors)
        random.Random(4).shuffle(order)
        entries = [(cid, _VARIANTS_CYCLE[r], np.asarray(vector, dtype=np.float32))
                   for cid in order for r, vector in enumerate(vectors[cid])]
        memory = memory_from_rows(entries, dim)
        pairs = [(cid, vector) for cid, _, vector in memory_rows(memory)]
        for q in (query, homonym.astype(np.float64)):
            best = dict(retrieve_ref(pairs, q, len(vectors)))
            assert sum(score == best["H0000"] for score in best.values()) >= 2000
            for k in (1, 5, 10, 40):
                slate = [(c.concept_id, c.score)
                         for c in retrieve_batch(memory, [q], k)[0]]
                # order is free among exact ties: each concept carries its own
                # exact score, and the scores are the k best, position by position
                assert [score for _, score in slate] == sorted(best.values(), reverse=True)[:k]
                assert len({cid for cid, _ in slate}) == k
                assert all(best[cid] == score for cid, score in slate)

    @pytest.mark.parametrize("head", [1, 5, 40])
    @pytest.mark.parametrize("entries", [1, 3, 16])
    def test_picks_are_the_pick_rule(self, head, entries):
        # the rescored entries, not only the slates: an over-inclusive filter
        # leaves every slate right and only rescores more. Entries of small
        # integers and queries of four halves make every float32 product
        # exact in any order, so the selection scores do not depend on the
        # blocking; shared name rows and twin context rows give exact ties
        gen = np.random.default_rng(31 * head + entries)
        dim = 8
        names = gen.choice([-2.0, -1.0, 1.0, 2.0], size=(12, dim)).astype(np.float32)
        rows = []
        for c in range(60):
            name = names[gen.integers(len(names))]
            rows.append((f"C{c:02d}", Variant.NAME_ONLY, name))
            if gen.random() < 0.6:
                context = name if gen.random() < 0.3 else gen.choice([-2.0, 1.0, 2.0], size=dim)
                rows.append((f"C{c:02d}", Variant.NAME_WITH_CONTEXT, np.float32(context)))
        memory = memory_from_rows(rows, dim)
        queries = np.zeros((20, dim))
        for query in queries:
            query[gen.choice(dim, size=4, replace=False)] = gen.choice([-0.5, 0.5], size=4)
        with mock.patch.object(memory_module, "_HEAD_ENTRIES", head), \
                mock.patch.object(memory_module, "_ENTRY_BLOCK", entries), \
                mock.patch.object(memory_module, "_pair_sums",
                                  wraps=memory_module._pair_sums) as pair_sums:
            for k in (1, 3, 10):
                pair_sums.reset_mock()
                retrieve_batch(memory, queries, k)
                assert pair_sums.call_count == 1
                _, rows, owners, *_ = pair_sums.call_args.args
                assert len(rows) == len(set(zip(owners.tolist(), rows.tolist())))
                assert set(zip(owners.tolist(), rows.tolist())) == _ref_picks(memory, queries, k)

    @pytest.mark.parametrize("length", [2.0 ** -70, 2.0 ** 70])
    def test_entry_length_outside_float32_range_rejected(self, length):
        vector = np.zeros(16, dtype=np.float32)
        vector[2] = length
        entries = [("C1", Variant.NAME_ONLY, np.ones(16, dtype=np.float32)),
                   ("C2", Variant.NAME_ONLY, vector)]
        with pytest.raises(InvalidVector) as exc:
            memory_from_rows(entries, 16)
        assert exc.value.index == 1


def _fsum_bits(rows: np.ndarray) -> list[int]:
    return np.array([math.fsum(r) for r in rows.tolist()]).view(np.uint64).tolist()


def _assert_exact_sums(rows) -> None:
    """The rescore's row sums equal fsum of each row, bit for bit, sign of zero included."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    before = rows.copy()
    got = memory_module._exact_sums(rows)
    assert got.dtype == np.float64 and got.shape == (len(rows),)
    assert got.view(np.uint64).tolist() == _fsum_bits(rows)
    assert np.array_equal(rows, before)
    # a strided copy of the same values sums the same
    strided = np.asfortranarray(rows)
    assert memory_module._exact_sums(strided).view(np.uint64).tolist() == _fsum_bits(rows)


def _unit_products(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """The products of ``count`` correlated and ``count`` independent pairs of signed unit
    float32 vectors, as a dense embedder gives them, one pair per row."""
    a, b, c = gen.normal(size=(3, count, dim))
    a, b, c = ((v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)
               for v in (a, a + 0.3 * b, c))
    return np.vstack([a * b, a * c])


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_F64 = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30)


def _shapes(max_rows: int = 6, max_width: int = 40):
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_width))


def _half_gap_up(x: float) -> float:
    return (math.nextafter(x, math.inf) - x) / 2


def _half_gap_down(x: float) -> float:
    return (x - math.nextafter(x, 0.0)) / 2


@st.composite
def _midpoint_rows(draw, tail: bool):
    """Rows summing to an exact midpoint between two floats, or a hair beside one.

    The halfway step is split in two, so no single term carries it, and
    cancelling pairs widen the row and spread its exponents.
    """
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        x = draw(st.floats(1.0, 2.0, exclude_max=True)) * 2.0 ** draw(st.integers(-40, 40))
        if draw(st.booleans()):
            x = 2.0 ** draw(st.integers(-40, 40))  # where the gap below is half the gap above
        # the midpoint above x, or the one below, which at a power of two
        # is half as far
        half = _half_gap_up(x) if draw(st.booleans()) else -_half_gap_down(x)
        terms = [x, half / 2, half / 2]
        if tail:
            terms.append(draw(st.sampled_from([1.0, -1.0])) * half
                         * 2.0 ** -draw(st.integers(1, 90)))
        for y in draw(st.lists(st.floats(-1.0, 1.0), max_size=6)):
            y *= 2.0 ** draw(st.integers(-70, 0))
            terms += [y, -y]
        sign = draw(st.sampled_from([1.0, -1.0]))
        rows.append([sign * t for t in draw(st.permutations(terms))])
    width = max(len(r) for r in rows)
    return np.array([r + [0.0] * (width - len(r)) for r in rows])


class TestExactSums:
    """The rescore's vectorised sums against math.fsum, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=_shapes())
    def test_float32_products(self, data, shape):
        a = data.draw(hnp.arrays(np.float32, shape, elements=_F32)).astype(np.float64)
        b = data.draw(hnp.arrays(np.float32, shape, elements=_F32)).astype(np.float64)
        products = a * b
        if np.isfinite(products).all():
            _assert_exact_sums(products)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=_shapes())
    def test_float32_times_float64(self, data, shape):
        # a library caller's float64 query against float32 entries
        a = data.draw(hnp.arrays(np.float32, shape, elements=_F32)).astype(np.float64)
        b = data.draw(hnp.arrays(np.float64, shape, elements=_F64))
        products = a * b
        if np.isfinite(products).all():
            _assert_exact_sums(products)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=_shapes(max_width=300))
    def test_exponent_spread_across_norm_range(self, data, shape):
        # entries of any length inside _NORM_RANGE, against unit queries
        low, high = (int(math.log2(x)) for x in memory_module._NORM_RANGE)
        mantissas = data.draw(hnp.arrays(np.float32, shape, elements=st.floats(
            -2.0, 2.0, width=32, allow_subnormal=False)))
        exponents = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(low, high)))
        entries = np.ldexp(mantissas.astype(np.float64), exponents).astype(np.float32)
        queries = data.draw(hnp.arrays(np.float32, shape, elements=st.floats(
            -1.0, 1.0, width=32)))
        _assert_exact_sums(entries.astype(np.float64) * queries.astype(np.float64))
        _assert_exact_sums(np.square(entries.astype(np.float64)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=_shapes(max_width=30))
    def test_gradual_underflow(self, data, shape):
        values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
            -2.0 ** -1000, 2.0 ** -1000)))
        _assert_exact_sums(values)

    @settings(max_examples=150, deadline=None)
    @given(rows=_midpoint_rows(tail=False))
    def test_exact_midpoints(self, rows):
        _assert_exact_sums(rows)

    @settings(max_examples=300, deadline=None)
    @given(rows=_midpoint_rows(tail=True))
    def test_a_hair_beside_a_midpoint(self, rows):
        _assert_exact_sums(rows)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=_shapes(max_width=20))
    def test_cancellation(self, data, shape):
        values = data.draw(hnp.arrays(np.float32, shape, elements=_F32)).astype(np.float64)
        tiny = data.draw(hnp.arrays(np.float64, (shape[0], 1), elements=st.floats(-1e-30, 1e-30)))
        rows = np.concatenate([values, -values[:, ::-1], tiny], axis=1)
        order = data.draw(st.permutations(range(rows.shape[1])))
        _assert_exact_sums(rows[:, order])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (1, 1), (4, 1), (2, 2), (5, 3),
                                       (3, 7), (2, 255), (2, 257), (2, 768), (2, 1024)])
    def test_widths_and_empty(self, shape):
        gen = np.random.default_rng(sum(shape))
        _assert_exact_sums(gen.normal(size=shape))
        _assert_exact_sums(np.zeros(shape))
        _assert_exact_sums(-np.zeros(shape))
        _assert_exact_sums(_unit_products(gen, 64, shape[1]))

    def test_signed_zero_rows(self):
        _assert_exact_sums([[-0.0, -0.0, -0.0], [1.0, -1.0, -0.0], [-0.0, 0.0, -0.0],
                            [2.0 ** -1074, -(2.0 ** -1074), 0.0]])

    def test_exact_zero_sums_match_fsum_without_calling_it(self, monkeypatch):
        gen = np.random.default_rng(11)
        signed_zeros = np.where(gen.random((300, 64)) < 0.5, 0.0, -0.0)
        # products of vectors with disjoint supports: every term is a signed zero
        mask = gen.random((300, 64)) < 0.5
        normal = gen.normal(size=(2, 300, 64)) * 2.0 ** gen.integers(-60, 60, size=(2, 300, 64))
        zero = np.where(gen.random((2, 300, 64)) < 0.5, 0.0, -0.0)
        disjoint = np.where(mask, normal[0], zero[0]) * np.where(mask, zero[1], normal[1])
        halves = normal[0, :, :32]
        cancelling = np.array([gen.permutation(row) for row in np.hstack([halves, -halves])])
        rows = np.vstack([signed_zeros, disjoint, cancelling])
        wants = [math.fsum(row) for row in rows.tolist()]
        got = memory_module._exact_sums(rows)
        for value, want in zip(got.tolist(), wants):
            assert value.hex() == want.hex()
            assert math.copysign(1.0, value) == math.copysign(1.0, want)

        calls = []
        fsum = math.fsum
        monkeypatch.setattr(memory_module.math, "fsum", lambda values: calls.append(1) or fsum(values))
        zero_rows = np.vstack([signed_zeros, disjoint])
        assert not memory_module._exact_sums(zero_rows).any()
        assert calls == []

    def test_certificate_refuses_a_plain_rounding(self):
        # the split gives hi = 1.5 and low parts summing to half an ulp of
        # 1.5 plus 2**-113; fl(hi + lo) rounds that to 1.5, but the exact sum
        # lies above the midpoint, so fsum rounds up
        half = _half_gap_up(1.5)
        row = np.array([half / 2, 1.5, half * 2.0 ** -60, half / 2])
        plain = 1.5 + (half / 2 + half * 2.0 ** -60 + half / 2)
        assert plain == 1.5 != math.fsum(row.tolist())
        _assert_exact_sums(row[None, :])

    def test_certificate_refuses_no_more_rows_than_it_must(self, rng, monkeypatch):
        # a certificate that refused more rows would stay exact, only slower.
        # Each query's dots with its own concept's entries are formed here,
        # not picked by the float32 selection, so no BLAS summation order can
        # change them; float32 products are exact, so their sums often land
        # on a midpoint, and unit float64 queries give products that are not
        ontology = synthetic_ontology(rng, 300, described_fraction=0.9)
        provider = local_provider(dim=256)
        memory = build_memory(ontology, provider)
        queries, gold = queries_for(ontology, rng, 300, noisy=True)
        vectors = provider.embed_batch([query_text(q) for q in queries]).astype(np.float64)
        vectors = np.vstack([vectors, vectors / np.linalg.norm(vectors, axis=1)[:, None]])
        concepts = [ontology.position(gold[q.id]) for q in queries] * 2
        rows, owners = np.array([(row, owner) for owner, concept in enumerate(concepts)
                                 for row in np.flatnonzero(memory._concepts == concept)]).T
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(memory_module.math, "fsum",
                            lambda values: calls.append(1) or fsum(values))
        dots = memory_module._pair_sums(memory, rows, owners, vectors, 1 << 14)
        assert len(rows) == 1136 and len(calls) <= 93
        want = [fsum(memory.vectors[row].astype(np.float64) * vectors[owner])
                for row, owner in zip(rows, owners)]
        assert dots.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_gap_below_a_power_of_two_is_the_narrow_one(self):
        # hi = 1.0 and the errors sum to a hair below -2**-54, so fl(hi + lo)
        # ties to 1.0 with remainder -2**-54: inside half the gap above 1.0,
        # but exactly half the gap below, where the exact sum lies and fsum
        # rounds down
        row = np.array([1.0, -(2.0 ** -55), -(2.0 ** -55), -(2.0 ** -200)])
        assert math.fsum(row.tolist()) == math.nextafter(1.0, 0.0)
        _assert_exact_sums(row[None, :])
        _assert_exact_sums(-row[None, :])

    @pytest.mark.parametrize("row, error", [
        ([1e308, 1e308], OverflowError),
        ([1e308, 1e308, -1e308], OverflowError),  # fsum overflows on the way
        ([1e308, -1e308, 1e308, 1e308], OverflowError),
        ([math.inf, -math.inf], ValueError),
        ([math.inf, 1e308, 1e308], OverflowError),
        # the row sums to 0, but fsum's running sum overflows
        ([1e308, 1e308, -1e308, -1e308], OverflowError),
    ])
    def test_overflow_raises_as_fsum_does(self, row, error):
        with pytest.raises(error):
            math.fsum(row)
        # the same row beside fine ones, in either order
        for rows in ([row, [1.0] * len(row)], [[2.0] * len(row), row]):
            with pytest.raises(error):
                memory_module._exact_sums(np.array(rows))

    def test_first_failing_row_decides_the_error(self):
        rows = np.array([[1.0, 2.0], [math.inf, -math.inf], [1e308, 1e308]])
        with pytest.raises(ValueError):
            memory_module._exact_sums(rows)

    def test_non_finite_rows_as_fsum(self):
        rows = np.array([[math.inf, 1.0, 2.0], [math.nan, 1.0, 0.0], [-math.inf, -math.inf, 5.0],
                         [1e308, 1.0, -1e308], [3.0, 4.0, 5.0]])
        got = memory_module._exact_sums(rows)
        want = np.array([math.fsum(r) for r in rows.tolist()])
        assert np.array_equal(got, want, equal_nan=True)

    def test_large_but_safe_rows(self):
        # the largest magnitudes the split takes without deferring to fsum
        limit = memory_module._SUM_LIMIT
        _assert_exact_sums([[limit / 8, limit / 8, -limit / 16, 1.0], [limit / 5, 3.0, 0.5, -1.5]])


def _pushed_slates(memory: Memory, queries, k: int) -> list[list[tuple[str, float, Variant]]]:
    """Slates, one query per call, with every selection score pushed by up to delta.

    delta = (1.02 dim + 5) 2**-24 bounds how far a float32 selection score
    may lie from its exact cosine (:func:`memory._score_margin`). For each
    query the entries' inverse norms are scaled so that an entry at or above
    the query's exact k-th best concept score loses delta and one below it
    gains delta: the worst the float32 product may do to the selection.
    """
    delta = (1.02 * memory.dim + 5) * 2.0 ** -24
    slates = []
    for query, want in zip(queries, _ref_slates(memory, queries, k)):
        exact = np.array([cosine(vector, query) for vector in memory.vectors])
        unit = (query / np.linalg.norm(query)).astype(np.float32)
        selection = (memory.vectors @ unit).astype(np.float64) * memory._inv_norms
        push = np.where(exact >= want[-1][1], -delta, delta)
        # a score too near 0 to be pushed by scaling is left where it is
        scale = 1 + np.divide(push, selection, out=np.zeros_like(selection),
                              where=np.abs(selection) > 2 * delta)
        with mock.patch.object(memory, "_inv_norms", (memory._inv_norms * scale).astype(np.float32)):
            slates += _slates(memory, query[None, :], k)
    return slates


class TestSelectionMargin:
    """The selection margin is what keeps slates exact, not scores that err less than proven."""

    @staticmethod
    def near_tie_memory() -> tuple[Memory, list[np.ndarray]]:
        """Pairs of vectors whose exact cosines with a query are 8 to 26 times 2**-24 apart.

        A pair is two concepts, the better one with the later id, or one
        concept whose context row beats its name row. Random concepts fill
        the rest of the memory.
        """
        gen = np.random.default_rng(17)
        dim, u = 32, 2.0 ** -24
        rows, queries = [], []
        for i, gap in enumerate((8 * u, 14 * u, 20 * u, 26 * u)):
            base = gen.normal(size=dim)
            query = base + 0.3 * gen.normal(size=dim)
            a, q = base / np.linalg.norm(base), query / np.linalg.norm(query)
            cos = a @ q
            away = (cos * a - q) / np.linalg.norm(cos * a - q)  # in their plane, away from q
            angle = gap / math.sqrt(1 - cos * cos)
            high = base.astype(np.float32)
            low = (np.linalg.norm(base) * (math.cos(angle) * a + math.sin(angle) * away)
                   ).astype(np.float32)
            assert 0.5 * gap < cosine(high, query) - cosine(low, query) < 1.5 * gap
            if i % 2:
                rows += [(f"P{i}", Variant.NAME_ONLY, low), (f"P{i}", Variant.NAME_WITH_CONTEXT, high)]
            else:
                rows += [(f"Z{i}", Variant.NAME_ONLY, high), (f"A{i}", Variant.NAME_ONLY, low)]
            queries.append(query)
        rows += [(f"F{i:02d}", Variant.NAME_ONLY, vector)
                 for i, vector in enumerate(gen.normal(size=(40, dim)).astype(np.float32))]
        return memory_from_rows(rows, dim), queries

    def test_scores_pushed_by_the_proven_error_change_no_slate(self):
        provider, homonyms, _ = _homonym_store()
        names = sorted(set(_homonym_ontology().names))
        texts = names + [f"{a} {b}" for a, b in zip(names, names[1:] + names[:1])]
        cases = [(*self.near_tie_memory(), (1,)),
                 (homonyms, list(provider.embed_batch(texts).astype(np.float64)), (1, 3, 10))]
        changed = 0
        for memory, queries, ks in cases:
            for k in ks:
                want = _ref_slates(memory, queries, k)
                assert _pushed_slates(memory, queries, k) == want
                # half the proven margin is not enough: the same push changes a slate
                delta = (1.02 * memory.dim + 5) * 2.0 ** -24
                with mock.patch.object(memory, "_margin", delta):
                    changed += sum(got != slate for got, slate in
                                   zip(_pushed_slates(memory, queries, k), want))
        assert changed >= 1


class TestRescoreBlocks:
    """Selection and rescore give the same slates however they are blocked."""

    @pytest.mark.parametrize("head", [1, 7, 100])
    @pytest.mark.parametrize("block", [1, 97, 1 << 14])
    def test_blocking_does_not_change_slates(self, head, block):
        gen = np.random.default_rng(head + block)
        runs = [1 + (c * 5) % 3 % 2 for c in range(300)]
        memory, queries = TestEntrySelection.runs_memory(3, runs, dim=20)
        # best entries far past the head, and a run of twins, so the head's
        # bound is loose and exact ties straddle block edges
        queries = np.concatenate([queries, memory.vectors[-40:].astype(np.float64),
                                  gen.normal(size=(5, 20))])
        want = _ref_slates(memory, queries, 10)
        # 400 entries: scored one at a time, in blocks of 7, in blocks inside a
        # head of 100, and in blocks of 150 with a partial last one
        for entries in (1, 7, 64, 150):
            with mock.patch.object(memory_module, "_HEAD_ENTRIES", head), \
                    mock.patch.object(memory_module, "_SUM_BLOCK", block), \
                    mock.patch.object(memory_module, "_ENTRY_BLOCK", entries):
                for k in (1, 10):
                    assert _slates(memory, queries, k) == [slate[:k] for slate in want]

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_float64_queries_are_left_as_they_are(self, count):
        # a single float64 query row is its own contiguous transpose
        memory, queries = TestEntrySelection.runs_memory(4, [2, 1, 2], dim=12)
        queries = np.ascontiguousarray(queries[:count])
        before = queries.copy()
        retrieve_batch(memory, queries, 2)
        assert np.array_equal(queries, before)

    def test_rescore_scratch_stays_bounded(self):
        # 32 queries over 2,000 entries of dim 256, as at 1k concepts: the
        # rescore's temporaries must not outgrow the score block they follow
        import tracemalloc

        gen = np.random.default_rng(8)
        vectors = gen.normal(size=(2000, 256)).astype(np.float32)
        memory = memory_from_rows([(f"C{i // 2:04d}", _VARIANTS_CYCLE[i % 2], v)
                                   for i, v in enumerate(vectors)], 256)
        queries = (vectors[::60] + 0.1 * gen.normal(size=(34, 256)).astype(np.float32))[:32]
        retrieve_batch(memory, queries, 10)
        tracemalloc.start()
        try:
            retrieve_batch(memory, queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 score block and its partitioned copy, plus the queries
        scores = 4 * len(queries) * len(memory)
        assert peak < 2 * scores + 12 * queries.size + (128 << 10)

    def test_chunk_is_sized_from_the_head(self):
        # 32 queries over 40,000 entries: only the head's scores are held, so
        # they, not a score per entry, size the chunk, and one selection
        # serves every query
        gen = np.random.default_rng(10)
        vectors = gen.standard_normal(size=(40000, 16), dtype=np.float32)
        memory = Memory([f"C{i:05d}" for i in range(20000)], np.ones(20000, bool),
                        vectors, 16, ("local-trigram", "m"))
        queries = vectors[::1250] + 0.1 * gen.standard_normal(size=(32, 16), dtype=np.float32)
        with mock.patch.object(memory_module, "_select", wraps=memory_module._select) as select:
            batch = retrieve_batch(memory, queries, 10)
        assert select.call_count == 1
        assert batch == [retrieve_batch(memory, [query], 10)[0] for query in queries]

    def test_selection_does_not_grow_with_the_memory(self):
        # 32 queries over 2,000 and over 32,000 entries of dim 256: retrieval
        # holds the head's scores, one block and a rescore scratch sized from
        # the head, never a score per entry
        import tracemalloc

        gen = np.random.default_rng(9)
        peaks = []
        for count in (2000, 32000):
            vectors = gen.standard_normal(size=(count, 256), dtype=np.float32)
            memory = Memory([f"C{i:05d}" for i in range(count // 2)], np.ones(count // 2, bool),
                            vectors, 256, ("local-trigram", "m"))
            noise = gen.standard_normal(size=(32, 256), dtype=np.float32)
            queries = vectors[:: count // 32][:32] + 0.1 * noise
            retrieve_batch(memory, queries, 10)
            tracemalloc.start()
            try:
                retrieve_batch(memory, queries, 10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1 << 20


class TestStoreFile:
    def test_round_trip_vectors_exact(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 25)
        memory = build_memory(onto, local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        loaded = load_memory(path)
        assert loaded.dim == memory.dim
        assert loaded.provider_fingerprint == memory.provider_fingerprint
        assert len(loaded) == len(memory)
        for a, b in zip(memory_rows(loaded), memory_rows(memory)):
            assert a[:2] == b[:2]
            assert np.array_equal(a[2], b[2])

    def test_save_is_deterministic(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 10)
        memory = build_memory(onto, local_provider(dim=32))
        save_memory(memory, tmp_path / "a.lm")
        save_memory(memory, tmp_path / "b.lm")
        assert (tmp_path / "a.lm").read_bytes() == (tmp_path / "b.lm").read_bytes()

    def test_retrieval_identical_after_round_trip(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 30)
        provider = local_provider(dim=32)
        memory = build_memory(onto, provider)
        save_memory(memory, tmp_path / "m.lm")
        loaded = load_memory(tmp_path / "m.lm")
        qv = provider.embed_batch([onto.names[3]])[0]
        assert retrieve_batch(loaded, [qv], 5)[0] == retrieve_batch(memory, [qv], 5)[0]

    def test_truncated_file_rejected(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 10)
        memory = build_memory(onto, local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        data = path.read_bytes()
        path.write_bytes(data[: -2 * 32 * 4])  # the last two rows of the matrix
        with pytest.raises(BadMagic):
            load_memory(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "m.lm"
        path.write_text("not a memory file\n")
        with pytest.raises(BadMagic):
            load_memory(path)

    def test_version_mismatch(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 5)
        memory = build_memory(onto, local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["format_version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(VersionMismatch):
            load_memory(path)

    @pytest.mark.parametrize("key, value", [
        ("dim", "32"), ("dim", 32.9), ("dim", True), ("dim", 0), ("dim", ...),
        ("provider_id", 5), ("model_id", None), ("model_id", 5),
        ("entry_count", "3"), ("entry_count", -1), ("entry_count", ...),
        ("concept_ids", "C0000"), ("concept_ids", [1]),
        # a provider kind the program does not know
        ("provider_id", "\u0660"), ("provider_id", "local"), ("provider_id", ""),
    ])
    def test_header_field_of_another_type_rejected(self, tmp_path, rng, key, value):
        # ... stands for a key left out
        memory = build_memory(synthetic_ontology(rng, 3), local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header[key] = value
        if value is ...:
            del header[key]
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(BadMagic, match="memory header incomplete"):
            load_memory(path)

    def test_stored_ontology_tag_is_ignored(self, tmp_path, rng):
        # older files carried the ontology's tag; a header key the
        # loader does not read is ignored
        memory = build_memory(synthetic_ontology(rng, 3), local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert "ontology_tag" not in header
        header["ontology_tag"] = "ontology"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        loaded = load_memory(path)
        assert loaded.concept_ids == memory.concept_ids
        assert np.array_equal(loaded.vectors, memory.vectors)

    def test_v1_text_file_is_a_version_mismatch(self, tmp_path):
        path = tmp_path / "m.lm"
        header = {"format_version": 1, "dim": 4, "provider_id": "local-trigram",
                  "model_id": "m", "ontology_tag": "t", "entry_count": 1}
        path.write_text(json.dumps(header) + "\n"
                        + '{"cid": "C1", "variant": "n", "v": [1.0, 0.0, 0.0, 0.0]}\n')
        with pytest.raises(VersionMismatch) as exc:
            load_memory(path)
        assert exc.value.got == 1

    @pytest.mark.parametrize("cut", [1, "matrix", "body"])
    def test_truncated_matrix_rejected(self, tmp_path, rng, cut):
        memory = build_memory(synthetic_ontology(rng, 10), local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        data = path.read_bytes()
        body = len(memory.concept_ids) + len(memory) * 32 * 4
        drop = {"matrix": len(memory) * 32 * 4, "body": body}.get(cut, cut)
        path.write_bytes(data[: len(data) - drop])
        with pytest.raises(BadMagic):
            load_memory(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        memory = build_memory(synthetic_ontology(rng, 5), local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(BadMagic):
            load_memory(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_matrix_value_rejected(self, tmp_path, rng, value):
        memory = build_memory(synthetic_ontology(rng, 10), local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        data = bytearray(path.read_bytes())
        row, column = 3, 7
        offset = len(data) - (len(memory) - row) * 32 * 4 + column * 4
        data[offset : offset + 4] = np.float32(value).astype("<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidVector) as exc:
            load_memory(path)
        assert exc.value.index == row

    def test_split_concept_in_file_rejected(self, tmp_path, rng):
        # the flags place every row, so a split concept can only be a repeated id
        memory = build_memory(synthetic_ontology(rng, 10), local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["concept_ids"][-1] = header["concept_ids"][0]
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(BadMagic, match="listed more than once"):
            load_memory(path)

    def test_fingerprint_warns_by_default(self, tmp_path, caplog):
        # two remote ids may name one model; only a local side makes it fatal
        memory = Memory(["C1"], [False], np.ones((1, 4)), 4, ("remote", "embed-a"))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        with caplog.at_level("WARNING"):
            load_memory(path, expected_provider=("remote", "embed-b"))
        assert any("provider" in r.message for r in caplog.records)

    def test_fingerprint_strict_raises(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 5)
        memory = build_memory(onto, local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        with pytest.raises(FingerprintMismatch):
            load_memory(path, expected_provider=("local-trigram", "other"), strict=True)

    @pytest.mark.parametrize("stored, requested", [
        (("local-trigram", "trigram-d4-s0"), ("local-trigram", "trigram-d4-s1")),
        (("local-trigram", "trigram-d4-s0"), ("remote", "trigram-d4-s0")),
        (("remote", "embed-a"), ("local-trigram", "trigram-d4-s0")),
    ])
    @pytest.mark.parametrize("strict", [False, True])
    def test_fingerprint_with_a_local_side_raises(self, tmp_path, stored, requested, strict):
        # a local id names dim and seed, so two that differ never share a space
        path = tmp_path / "m.lm"
        save_memory(Memory(["C1"], [False], np.ones((1, 4)), 4, stored), path)
        with pytest.raises(FingerprintMismatch) as exc:
            load_memory(path, expected_provider=requested, strict=strict)
        assert (exc.value.stored, exc.value.requested) == (stored, requested)


class TestFormatV3:
    """The context flag column, one byte per concept, that v3 brought and v4 keeps."""

    @staticmethod
    def saved(tmp_path, rng):
        ontology = synthetic_ontology(rng, 12)
        memory = build_memory(ontology, local_provider(dim=32))
        path = tmp_path / "m.lm"
        save_memory(memory, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        return ontology, memory, path, json.loads(header_line), bytearray(body)

    def test_v2_file_is_a_version_mismatch(self, tmp_path, rng):
        _, memory, path, header, body = self.saved(tmp_path, rng)
        header["format_version"] = 2
        runs = 1 + memory.has_context
        index = np.repeat(np.arange(12), runs).astype("<u4")
        variants = np.concatenate([np.arange(run) for run in runs]).astype(np.uint8)
        path.write_bytes(json.dumps(header).encode() + b"\n" + index.tobytes()
                         + variants.tobytes() + body[12 + 8 * len(memory):])
        with pytest.raises(VersionMismatch) as exc:
            load_memory(path)
        assert exc.value.got == 2

    @pytest.mark.parametrize("edit", ["flag of 2", "flipped flag", "one byte short",
                                      "one byte over"])
    def test_corrupt_flags_or_size_rejected(self, tmp_path, rng, edit):
        _, memory, path, header, body = self.saved(tmp_path, rng)
        described = np.flatnonzero(memory.has_context)
        if edit == "flag of 2":
            body[described[0]] = 2  # still a set flag, were it read as a bool
        elif edit == "flipped flag":
            body[np.flatnonzero(~memory.has_context)[0]] = 1
        elif edit == "one byte short":
            del body[-1]
        else:
            body.append(0)
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))
        with pytest.raises(BadMagic):
            load_memory(path)


def _fsum_squares(vectors: np.ndarray) -> list[float]:
    return [math.fsum(row) for row in (vectors.astype(np.float64) ** 2).tolist()]


class TestFormatV4:
    """Flags, then one float64 square per entry, its fsum of squares, then the matrix."""

    def test_layout(self, tmp_path, rng):
        ontology, memory, _, header, body = TestFormatV3.saved(tmp_path, rng)
        flags = [int(description is not None) for description in ontology.descriptions]
        count = len(memory)
        assert header["format_version"] == 4
        assert header["entry_count"] == count == 12 + sum(flags)
        assert list(body[:12]) == flags
        squares = np.array(_fsum_squares(memory.vectors), dtype="<f8")
        assert body[12 : 12 + 8 * count] == squares.tobytes()
        assert body[12 + 8 * count :] == memory.vectors.astype("<f4").tobytes()

    def test_v3_file_is_a_version_mismatch(self, tmp_path, rng):
        _, memory, path, header, body = TestFormatV3.saved(tmp_path, rng)
        header["format_version"] = 3
        path.write_bytes(json.dumps(header).encode() + b"\n" + body[:12]
                         + body[12 + 8 * len(memory):])
        with pytest.raises(VersionMismatch) as exc:
            load_memory(path)
        assert exc.value.got == 3

    @staticmethod
    def fallback_rows(dim: int) -> np.ndarray:
        """Rows whose squares sum to an exact midpoint between two floats, for fsum alone."""
        rows = []
        for exponent in (-40, -3, 0, 7, 40):
            row = np.zeros(dim, dtype=np.float32)
            # 1 + 2**-53 times a power of four: the two small squares carry the
            # half step between 1 and the next float
            row[:3] = np.float32(2.0 ** exponent) * np.float32([1.0, 2.0 ** -27, 2.0 ** -27])
            rows.append(np.random.default_rng(exponent + 50).permutation(row))
        return np.array(rows)

    def test_squares_are_fsum_bit_for_bit(self, tmp_path, monkeypatch):
        dim = 16
        gen = np.random.default_rng(12)
        extremes = [np.float32(2.0 ** -61) * np.ones(dim), np.float32(2.0 ** 61) * np.ones(dim),
                    np.float32([2.0 ** -64] + [2.0 ** -149] * (dim - 1)),
                    np.float32([2.0 ** 63.9] + [1e-45] * (dim - 1))]
        spread = gen.normal(size=(40, dim)) * 2.0 ** gen.integers(-60, 60, size=(40, 1))
        vectors = np.vstack([self.fallback_rows(dim), extremes, spread]).astype(np.float32)
        want = np.array(_fsum_squares(vectors))

        calls = []
        fsum = math.fsum
        monkeypatch.setattr(memory_module.math, "fsum",
                            lambda values: calls.append(1) or fsum(values))
        ids = [f"C{i:03d}" for i in range(len(vectors))]
        memory = Memory(ids, np.zeros(len(ids), bool), vectors, dim, ("local-trigram", "m"))
        monkeypatch.undo()
        assert len(calls) >= len(self.fallback_rows(dim))  # the certificate refused them
        assert memory._squares.view(np.uint64).tolist() == want.view(np.uint64).tolist()

        save_memory(memory, tmp_path / "m.lm")
        body = (tmp_path / "m.lm").read_bytes().split(b"\n", 1)[1]
        stored = np.frombuffer(body[len(ids) : len(ids) + 8 * len(ids)], dtype="<f8")
        assert stored.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        loaded = load_memory(tmp_path / "m.lm")
        assert loaded._squares.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert not loaded._squares.flags.writeable and not memory._squares.flags.writeable

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_rebuild_is_byte_identical(self, tmp_path, rng, block):
        ontology = synthetic_ontology(rng, 40)
        save_memory(build_memory(ontology, local_provider(dim=32)), tmp_path / "a.lm")
        # however many entries one pass of the exact sums takes
        with mock.patch.object(memory_module, "_SUM_BLOCK", block):
            save_memory(build_memory(ontology, local_provider(dim=32)), tmp_path / "b.lm")
        assert (tmp_path / "a.lm").read_bytes() == (tmp_path / "b.lm").read_bytes()

    @pytest.mark.parametrize("edit", ["beyond the slack", "negated", "zero", "nan", "inf",
                                      "another entry's"])
    def test_wrong_square_rejected(self, tmp_path, rng, edit):
        _, memory, path, header, body = TestFormatV3.saved(tmp_path, rng)
        squares = np.frombuffer(bytes(body[12 : 12 + 8 * len(memory)]), dtype="<f8").copy()
        row = 5
        slack = memory_module._square_slack(memory.dim)
        squares[row] = {"beyond the slack": squares[row] * (1 + 3 * slack),
                        "negated": -squares[row], "zero": 0.0, "nan": math.nan,
                        "inf": math.inf,
                        "another entry's": squares[row] * 1.5}[edit]
        body[12 : 12 + 8 * len(memory)] = squares.astype("<f8").tobytes()
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))
        with pytest.raises(BadMagic, match=f"stored square of entry {row}"):
            load_memory(path)

    def test_square_within_the_slack_loads(self, tmp_path, rng):
        # the check is the proven bound between fsum and einsum, so a float64
        # sum in any order always passes
        _, memory, path, header, body = TestFormatV3.saved(tmp_path, rng)
        squares = np.frombuffer(bytes(body[12 : 12 + 8 * len(memory)]), dtype="<f8").copy()
        squares[5] = math.nextafter(squares[5], math.inf)
        body[12 : 12 + 8 * len(memory)] = squares.astype("<f8").tobytes()
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))
        assert load_memory(path)._squares[5] == squares[5]

    def test_sums_in_any_order_are_within_the_slack(self):
        gen = np.random.default_rng(13)
        for dim in (1, 2, 3, 16, 256, 1000):
            vectors = (gen.normal(size=(200, dim))
                       * 2.0 ** gen.integers(-60, 60, size=(200, 1))).astype(np.float32)
            vectors[:20, 1:] *= np.float32(2.0 ** -40)  # one term carries the row
            exact = np.array(_fsum_squares(vectors))
            products = vectors.astype(np.float64) ** 2
            for other in (products.sum(axis=1), np.cumsum(products, axis=1)[:, -1],
                          np.cumsum(products[:, ::-1], axis=1)[:, -1],
                          np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)):
                assert (np.abs(exact - other) <= other * memory_module._square_slack(dim)).all()

    def test_short_square_column_rejected(self, tmp_path, rng):
        _, memory, path, header, body = TestFormatV3.saved(tmp_path, rng)
        del body[12 : 12 + 8]
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))
        with pytest.raises(BadMagic, match=f"{len(memory)} squares"):
            load_memory(path)


class TestGivenSquares:
    """``Memory(..., squares)`` keeps squares that are its rows' and refuses any other."""

    @staticmethod
    def built(rng) -> Memory:
        return build_memory(synthetic_ontology(rng, 40), local_provider(dim=32))

    @staticmethod
    def columns(memory: Memory) -> tuple:
        return (memory.concept_ids, memory.has_context, memory.vectors, memory.dim,
                memory.provider_fingerprint)

    def test_built_squares_give_the_built_memory(self, rng):
        built = self.built(rng)
        squares = np.array(built._squares)
        given = Memory(*self.columns(built), squares)
        assert given._squares is squares and not squares.flags.writeable  # kept, not copied
        for name in ("concept_ids", "has_context", "vectors", "dim", "provider_fingerprint",
                     "_squares", "_inv_norms", "_concepts", "_name_rows", "_max_run", "_margin"):
            assert np.array_equal(getattr(given, name), getattr(built, name)), name
        queries = built.vectors[::7] + np.float32(0.25)
        assert retrieve_batch(given, queries, 5) == retrieve_batch(built, queries, 5)

    @pytest.mark.parametrize("edit, match", [
        ("beyond the slack", "the stored square of entry 3, "),
        ("nan", "the stored square of entry 3, nan, is not its vector's"),
        ("short", r"squares of shape \(\d+,\) do not fit"),
        ("2-d", r"squares of shape \(\d+, 1\) do not fit"),
    ], ids=["beyond-the-slack", "nan", "short", "2-d"])
    def test_wrong_square_raises_layout_error(self, rng, edit, match):
        built = self.built(rng)
        squares = np.array(built._squares)
        slack = memory_module._square_slack(built.dim)
        squares[3] = {"beyond the slack": squares[3] * (1 + 3 * slack),
                      "nan": math.nan}.get(edit, squares[3])
        squares = {"short": squares[:-1], "2-d": squares[:, None]}.get(edit, squares)
        with pytest.raises(MemoryLayoutError, match=match):
            Memory(*self.columns(built), squares)


def test_memory_coerces_vectors_to_float32():
    memory = Memory(["C1"], [False], np.ones((1, 4), dtype=np.float64), 4, ("p", "m"))
    assert memory.vectors.dtype == np.float32


def test_memory_rejects_wrong_entry_dim():
    entry = ("C1", Variant.NAME_ONLY, np.ones(8, dtype=np.float32))
    with pytest.raises(DimMismatch):
        memory_from_rows([entry], 16)


def test_memory_rejects_vectors_that_are_not_a_matrix():
    with pytest.raises(MemoryLayoutError, match=r"got shape \(16,\)"):
        Memory(["C1"], [False], np.ones(16, dtype=np.float32), 16, ("p", "m"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_memory_rejects_non_finite_or_zero_entry(value):
    good = np.ones(8, dtype=np.float32)
    bad = np.full(8, value, dtype=np.float32)
    entries = [("C1", Variant.NAME_ONLY, good),
               ("C2", Variant.NAME_ONLY, bad)]
    with pytest.raises(InvalidVector) as exc:
        memory_from_rows(entries, 8)
    assert exc.value.index == 1


def test_memory_rejects_split_concept():
    # a context row always follows its name row, so a split concept is a repeated id
    v = np.ones(8, dtype=np.float32)
    entries = [("A", Variant.NAME_ONLY, v), ("B", Variant.NAME_ONLY, v),
               ("A", Variant.NAME_ONLY, v)]
    with pytest.raises(MemoryLayoutError, match="'A' is listed more than once"):
        memory_from_rows(entries, 8)
