"""Acceptance gate: nine behavioral guarantees, one test per criterion.

Each test prints a single ACCEPTANCE PASS/FAIL line via the conftest hook.
Randomized fixtures log their seeds so any failure is reproducible.
"""

from __future__ import annotations

import random
import time

import pytest

from conceptlinker import (
    AblationArm,
    Concept,
    ExactMatchMockEndpoint,
    GoldPair,
    KeywordMockEndpoint,
    LinkJournal,
    PromptConfig,
    Query,
    build_memory,
    f1_from,
    link_queries,
    parse_predictions,
    parse_response,
    retrieve_batch,
    retrieve_for_queries,
    run_ablation,
    score_predictions,
    score_retrievals,
)
from conceptlinker.cli import main
import conceptlinker.cli as cli_module

from .conftest import (
    MASTER_SEED,
    local_provider,
    make_word,
    memory_rows,
    ontology_from,
    queries_for,
    synthetic_ontology,
    write_gold,
    write_ontology,
    write_queries,
)
from .oracles import hits_ref, retrieve_ref
from .test_ranker import PARSE_FIXTURES

N_ONTOLOGIES = 20
SIZE_RANGE = (50, 1000)
KS = (1, 5, 10)


@pytest.fixture(scope="module")
def corpus():
    """Twenty randomized ontologies with their memories, seeds logged."""
    sizing = random.Random(MASTER_SEED)
    provider = local_provider(dim=32)
    started = time.monotonic()
    built = []
    for i in range(N_ONTOLOGIES):
        seed = MASTER_SEED + i
        n = sizing.randint(*SIZE_RANGE)
        print(f"corpus ontology {i:02d}: seed={seed} n_concepts={n}")
        rng = random.Random(seed)
        ontology = synthetic_ontology(rng, n, tag=f"synthetic-{i:02d}")
        built.append((seed, ontology, build_memory(ontology, provider)))
    return {"runs": built, "provider": provider, "build_seconds": time.monotonic() - started}


def test_criterion_1_retrieval_matches_oracle(corpus):
    provider = corpus["provider"]
    started = time.monotonic()
    for seed, ontology, memory in corpus["runs"]:
        rng = random.Random(seed ^ 0xA5A5)
        queries, _ = queries_for(ontology, rng, 3, noisy=True)
        vectors = provider.embed_batch(
            [f"{q.mention}: {q.context}" if q.context else q.mention for q in queries]
        )
        entries = [(cid, vector) for cid, _, vector in memory_rows(memory)]
        for vector in vectors:
            for k in KS:
                got = retrieve_batch(memory, [vector], k)[0]
                want = retrieve_ref(entries, vector, k)
                assert [c.concept_id for c in got] == [cid for cid, _ in want]
                for candidate, (_, score) in zip(got, want):
                    assert candidate.score == pytest.approx(score, abs=1e-9)
    elapsed = corpus["build_seconds"] + (time.monotonic() - started)
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


def test_criterion_2_memory_entry_accounting(corpus):
    for _, ontology, memory in corpus["runs"]:
        n = len(ontology)
        m = sum(1 for concept in ontology if concept.description)
        assert len(memory_rows(memory)) == n + m


def test_criterion_3_exact_match_end_to_end(rng):
    ontology = synthetic_ontology(rng, 150, tag="exact")
    provider = local_provider()
    memory = build_memory(ontology, provider)

    chosen = rng.sample(list(ontology), 100)
    queries = [Query(id=f"q{i:03d}", mention=c.name) for i, c in enumerate(chosen)]
    gold = [GoldPair(q.id, c.id) for q, c in zip(queries, chosen)]

    candidates = retrieve_for_queries(memory, queries, provider, 10)
    results = link_queries(
        queries, candidates, ontology, PromptConfig(), ExactMatchMockEndpoint()
    )
    report = score_predictions(results, gold)
    assert report.accuracy == 1.0
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f1 == 1.0
    assert report.n_correct == report.n_gold == 100


def homonym_dataset(rng, n_pairs=20):
    """Concept pairs sharing a name, separable only by their descriptions."""
    concepts: list[Concept] = []
    queries: list[Query] = []
    gold: list[GoldPair] = []
    names: set[str] = set()
    for i in range(n_pairs):
        while True:
            name = f"{make_word(rng)} {make_word(rng)}"
            if name not in names:
                names.add(name)
                break
        twins = []
        used: set[str] = set()
        for suffix in "ab":
            words = []
            while len(words) < 6:
                word = make_word(rng, 5, 9)
                if word not in used:
                    used.add(word)
                    words.append(word)
            twins.append(
                Concept(id=f"H{i:03d}{suffix}", name=name, description=" ".join(words))
            )
        concepts.extend(twins)
        target = twins[i % 2]
        context = " ".join(rng.sample(target.description.split(), 3))
        query_id = f"q{i:03d}"
        queries.append(Query(id=query_id, mention=name, context=context))
        gold.append(GoldPair(query_id, target.id))
    return ontology_from("homonyms", concepts), queries, gold


def test_criterion_4_candidate_context_improves_f1(rng):
    ontology, queries, gold = homonym_dataset(rng, n_pairs=20)
    provider = local_provider()
    memory = build_memory(ontology, provider)

    rows = run_ablation(
        queries, gold, ontology, memory, provider, KeywordMockEndpoint(),
        [
            AblationArm("with candidate context", PromptConfig(include_candidate_context=True)),
            AblationArm("without candidate context", PromptConfig(include_candidate_context=False)),
        ],
        k=10,
    )
    with_context, without_context = rows
    assert with_context.report is not None and without_context.report is not None
    # the direction must hold strictly, mirroring the published 0.698 < 0.882
    assert with_context.report.f1 > without_context.report.f1


def test_criterion_5_f1_published_operating_points():
    assert f1_from(0.906, 0.859) == pytest.approx(0.882, abs=1e-3)
    assert f1_from(0.914, 0.7495) == pytest.approx(0.824, abs=1e-3)


def test_criterion_6_hits_monotone_and_oracle_equal(corpus):
    provider = corpus["provider"]
    for seed, ontology, memory in corpus["runs"][:5]:
        rng = random.Random(seed ^ 0x5A5A)
        queries, gold = queries_for(ontology, rng, 30, noisy=True)
        vectors = provider.embed_batch(
            [f"{q.mention}: {q.context}" if q.context else q.mention for q in queries]
        )
        retrievals = {
            q.id: [c.concept_id for c in retrieve_batch(memory, [v], max(KS))[0]]
            for q, v in zip(queries, vectors)
        }
        hits = score_retrievals(retrievals, gold, list(KS)).hits_at
        assert hits[1] <= hits[5] <= hits[10]
        for k in KS:
            assert hits[k] == hits_ref(retrievals, gold, k)
    # the published example rows follow the same monotone pattern
    assert 0.719 <= 0.833 <= 0.873


def test_criterion_7_parser_grammar_suite():
    assert len(PARSE_FIXTURES) >= 15
    texts = [text for text, _, _, _ in PARSE_FIXTURES]
    assert "option 0: Bleeding disorder due to P2Y12 defect" in texts
    for text, n_options, kind, index in PARSE_FIXTURES:
        selection = parse_response(text, n_options)
        assert selection.kind is kind, f"fixture {text!r}"
        assert selection.index == index, f"fixture {text!r}"


@pytest.fixture
def staged(tmp_path, rng):
    """A small on-disk dataset for the CLI-level criteria."""
    ontology = synthetic_ontology(rng, 60, tag="staged")
    concepts = rng.sample(list(ontology), 10)
    queries = [Query(id=f"q{i}", mention=c.name) for i, c in enumerate(concepts)]
    gold = [GoldPair(q.id, c.id) for q, c in zip(queries, concepts)]
    paths = {
        "ontology": tmp_path / "ontology.jsonl",
        "queries": tmp_path / "queries.jsonl",
        "gold": tmp_path / "gold.jsonl",
        "memory": tmp_path / "memory.bin",
        "predictions": tmp_path / "pred.jsonl",
        "report": tmp_path / "report.json",
        "fixtures": tmp_path / "transcript.jsonl",
    }
    write_ontology(paths["ontology"], ontology)
    write_queries(paths["queries"], queries)
    write_gold(paths["gold"], gold)
    return paths


def run_build(paths) -> int:
    return main([
        "build-memory",
        "--ontology", str(paths["ontology"]),
        "--output", str(paths["memory"]),
        "--dim", "64",
    ])


def run_link(paths, *extra) -> int:
    return main([
        "link",
        "--ontology", str(paths["ontology"]),
        "--queries", str(paths["queries"]),
        "--memory", str(paths["memory"]),
        "--output", str(paths["predictions"]),
        "--dim", "64",
        "--concurrency", "1",
        *extra,
    ])


def test_criterion_8_deterministic_rebuild(staged):
    # prime the transcript once with the offline mock
    assert run_build(staged) == 0
    assert run_link(staged, "--endpoint", "mock:exact",
                    "--fixtures", str(staged["fixtures"])) == 0

    artifacts = {}
    for attempt in ("first", "second"):
        for name in ("memory", "predictions", "report"):
            if staged[name].exists():
                staged[name].unlink()
        journal = staged["predictions"].with_name(staged["predictions"].name + ".details.jsonl")
        if journal.exists():
            journal.unlink()

        assert run_build(staged) == 0
        assert run_link(staged, "--fixtures", str(staged["fixtures"])) == 0
        assert main([
            "evaluate",
            "--gold", str(staged["gold"]),
            "--predictions", str(staged["predictions"]),
            "--output", str(staged["report"]),
        ]) == 0
        artifacts[attempt] = {
            name: staged[name].read_bytes()
            for name in ("memory", "predictions", "report")
        }

    for name in ("memory", "predictions", "report"):
        assert artifacts["first"][name] == artifacts["second"][name], name


class CrashingExactMatch(ExactMatchMockEndpoint):
    """Answers the first few queries, then dies like a lost connection."""

    def __init__(self, survive: int):
        self.survive = survive
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls > self.survive:
            raise RuntimeError("simulated crash")
        return super().complete(prompt)


class CountingExactMatch(ExactMatchMockEndpoint):
    def __init__(self):
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return super().complete(prompt)


def test_criterion_9_resume_after_interruption(staged, monkeypatch):
    assert run_build(staged) == 0

    crashing = CrashingExactMatch(survive=6)
    monkeypatch.setitem(cli_module._MOCK_ENDPOINTS, "mock:exact", lambda: crashing)
    assert run_link(staged, "--endpoint", "mock:exact") == 4

    journal_path = staged["predictions"].with_name(
        staged["predictions"].name + ".details.jsonl"
    )
    assert len(LinkJournal(journal_path)) == 6
    assert not staged["predictions"].exists()

    counting = CountingExactMatch()
    monkeypatch.setitem(cli_module._MOCK_ENDPOINTS, "mock:exact", lambda: counting)
    assert run_link(staged, "--endpoint", "mock:exact") == 0
    assert counting.calls == 4

    predictions = parse_predictions(staged["predictions"])
    assert len(predictions) == 10
    assert all(p.resolved is not None for p in predictions)
