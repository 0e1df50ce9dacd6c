"""Batch linking: ordering, concurrency, and journal-backed resume."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from unittest import mock

import pytest

from conceptlinker import (
    Candidate,
    Concept,
    ExactMatchMockEndpoint,
    KeywordMockEndpoint,
    LinkJournal,
    LinkResult,
    OneShotExample,
    PromptConfig,
    Query,
    ScriptedEndpoint,
    Selection,
    SelectionKind,
    TranscriptStore,
    Variant,
    build_memory,
    fit_prompt,
    link_queries,
    query_text,
    retrieve_for_queries,
)
from conceptlinker import ranker as ranker_module
from conceptlinker.errors import TranscriptMiss, TransportError
from conceptlinker.ranker import estimate_tokens
from conceptlinker.pipeline import journal_row, result_from_row

from .conftest import local_provider, ontology_from, queries_for, synthetic_ontology


class CountingExactMatch(ExactMatchMockEndpoint):
    """Exact-match mock that counts how many completions were issued."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return super().complete(prompt)


class FlakyEndpoint(ExactMatchMockEndpoint):
    """Fails the first ``failures`` calls, then behaves."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(503, "flaky")
        return super().complete(prompt)


class InFlightEndpoint(ExactMatchMockEndpoint):
    """Holds the first ``width`` calls until all of them are in flight at once.

    Records the most calls ever in flight and the threads that made them.
    """

    def __init__(self, width: int):
        self.width = width
        self.barrier = threading.Barrier(width, timeout=30)
        self.lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.most = 0
        self.threads: set[int] = set()

    def complete(self, prompt):
        with self.lock:
            self.calls += 1
            first_round = self.calls <= self.width
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
            self.threads.add(threading.get_ident())
        try:
            if first_round:
                self.barrier.wait()
            return super().complete(prompt)
        finally:
            with self.lock:
                self.in_flight -= 1


class RecordingEndpoint(ExactMatchMockEndpoint):
    """Records every prompt it completes, from any thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.prompts: list[str] = []

    def complete(self, prompt):
        with self.lock:
            self.prompts.append(prompt)
        return super().complete(prompt)


class RaisingEndpoint(ExactMatchMockEndpoint):
    """Raises RuntimeError for queries ``first`` to ``first + width - 1``.

    Each of those calls waits until all ``width`` of them are in flight,
    then raises its query's marker. Records the marker of every call.
    """

    def __init__(self, first: int, width: int):
        self.failing = {f"<{i}>" for i in range(first, first + width)}
        self.barrier = threading.Barrier(width, timeout=30)
        self.lock = threading.Lock()
        self.called: list[int] = []

    def complete(self, prompt):
        marker = re.search(r"<\d+>", prompt).group()
        with self.lock:
            self.called.append(int(marker[1:-1]))
        if marker in self.failing:
            self.barrier.wait()
            raise RuntimeError(marker)
        return super().complete(prompt)


class InterruptedEndpoint(ExactMatchMockEndpoint):
    """Interrupts the calling thread once a helper's call is in flight.

    The helper's call returns only after ``released`` is set, which the test
    does when the caller starts waiting for its helpers.
    """

    def __init__(self):
        self.caller = threading.get_ident()
        self.barrier = threading.Barrier(2, timeout=30)
        self.released = threading.Event()
        self.lock = threading.Lock()
        self.calls = 0

    def complete(self, prompt):
        with self.lock:
            self.calls += 1
        self.barrier.wait()
        if threading.get_ident() == self.caller:
            raise KeyboardInterrupt
        assert self.released.wait(30)
        return super().complete(prompt)


class Halt(BaseException):
    """Not an Exception, so a query that raises it is not a query failure."""


class HaltingEndpoint(ExactMatchMockEndpoint):
    """Raises Halt in a helper's first call; the caller's calls wait for it.

    Meant for one helper, at concurrency 2.
    """

    def __init__(self):
        self.caller = threading.get_ident()
        self.halted = threading.Event()

    def complete(self, prompt):
        if threading.get_ident() == self.caller:
            assert self.halted.wait(30)
        elif not self.halted.is_set():
            self.halted.set()
            raise Halt
        return super().complete(prompt)


def finishes(target, timeout=30):
    """Whether ``target()`` returns or raises within ``timeout`` seconds."""
    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    return not worker.is_alive()


def stable_fields(results):
    """Everything except latency, which is wall-clock noise."""
    return [
        (r.query_id, r.selection, r.resolved, r.prompt_digest, r.attempts)
        for r in results
    ]


@pytest.fixture
def setting(rng):
    ontology = synthetic_ontology(rng, 40)
    queries, gold = queries_for(ontology, rng, 8)
    provider = local_provider()
    memory = build_memory(ontology, provider)
    candidates = retrieve_for_queries(memory, queries, provider, 5)
    return ontology, queries, gold, provider, memory, candidates


class TestEmbedAndRetrieve:
    def test_embed_queries_in_order(self, setting):
        ontology, queries, _, provider, memory, _ = setting
        batches = []

        class Recording:
            spec = provider.spec

            def embed_batch(self, texts):
                batches.append(provider.embed_batch(texts))
                return batches[-1]

        retrieve_for_queries(memory, queries, Recording(), 5)
        [vectors] = batches
        assert len(vectors) == len(queries)
        singles = [provider.embed_batch([query_text(q)])[0] for q in queries]
        for got, want in zip(vectors, singles):
            assert (got == want).all()

    def test_retrieve_for_queries_shape(self, setting):
        _, queries, _, _, _, candidates = setting
        assert len(candidates) == len(queries)
        assert all(len(slate) == 5 for slate in candidates)


class TestLinkQueries:
    def test_input_order_and_resolution(self, setting):
        ontology, queries, gold, _, _, candidates = setting
        results = link_queries(
            queries, candidates, ontology, PromptConfig(), ExactMatchMockEndpoint()
        )
        assert [r.query_id for r in results] == [q.id for q in queries]
        # exact-name queries land on their gold concept
        for result in results:
            assert result.resolved == gold[result.query_id]

    def test_reply_with_a_digit_run_past_int_limit_is_a_parse_failure(self, setting):
        ontology, queries, _, _, _, candidates = setting
        long_run = "9" * 5000
        endpoint = ScriptedEndpoint([f"option {long_run}", f"{long_run}: that one", "option 0"])
        first, second = link_queries(queries[:2], candidates[:2], ontology, PromptConfig(),
                                     endpoint, concurrency=1)
        assert first.selection.kind is SelectionKind.PARSE_FAILURE
        assert first.attempts == 2
        assert second.resolved == candidates[1][0].concept_id

    def test_concurrency_matches_serial(self, setting):
        ontology, queries, _, _, _, candidates = setting
        serial = link_queries(
            queries, candidates, ontology, PromptConfig(), ExactMatchMockEndpoint(),
            concurrency=1,
        )
        threaded = link_queries(
            queries, candidates, ontology, PromptConfig(), ExactMatchMockEndpoint(),
            concurrency=4,
        )
        assert stable_fields(serial) == stable_fields(threaded)

    def test_length_mismatch(self, setting):
        ontology, queries, _, _, _, candidates = setting
        with pytest.raises(ValueError):
            link_queries(queries, candidates[:-1], ontology, PromptConfig(),
                         ExactMatchMockEndpoint())

    def test_concurrency_validated(self, setting):
        ontology, queries, _, _, _, candidates = setting
        with pytest.raises(ValueError):
            link_queries(queries, candidates, ontology, PromptConfig(),
                         ExactMatchMockEndpoint(), concurrency=0)

    def test_empty_batch(self, setting):
        ontology = setting[0]
        assert link_queries([], [], ontology, PromptConfig(),
                            ExactMatchMockEndpoint()) == []

    def test_each_prompt_built_once(self, setting):
        ontology, queries, _, _, _, candidates = setting
        candidates = [[] if i % 3 == 0 else slate for i, slate in enumerate(candidates)]
        with mock.patch.object(ranker_module, "build_prompt",
                               wraps=ranker_module.build_prompt) as build:
            results = link_queries(queries, candidates, ontology, PromptConfig(),
                                   ExactMatchMockEndpoint())
        assert build.call_count == sum(1 for slate in candidates if slate)
        # the digest and the prompt sent are still those rank builds alone
        for query, slate, result in zip(queries, candidates, results):
            alone = ranker_module.rank(query, slate, ontology, PromptConfig(),
                                       ExactMatchMockEndpoint())
            assert (result.prompt_digest, result.selection) == (alone.prompt_digest,
                                                                alone.selection)

    def test_each_prompt_hashed_once_in_the_calling_thread(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        candidates = [[] if i % 3 == 0 else slate for i, slate in enumerate(candidates)]
        prompts = [ranker_module.fit_prompt(query, slate, ontology, PromptConfig()) if slate else ""
                   for query, slate in zip(queries, candidates)]
        hashed = []

        def sha256(data):
            hashed.append((data.decode("utf-8"), threading.get_ident()))
            return hashlib.sha256(data)

        with mock.patch.object(ranker_module, "hashlib", mock.Mock(sha256=sha256)):
            results = link_queries(queries, candidates, ontology, PromptConfig(),
                                   ExactMatchMockEndpoint(), concurrency=3,
                                   journal=LinkJournal(tmp_path / "run.jsonl"))
        assert sorted(hashed) == sorted((prompt, threading.get_ident()) for prompt in prompts)
        assert [r.prompt_digest for r in results] == [ranker_module.prompt_digest(p)
                                                      for p in prompts]


    def test_concurrency_bounds_calls_in_flight(self, setting):
        ontology, queries, _, _, _, candidates = setting
        endpoint = InFlightEndpoint(3)
        results = link_queries(queries, candidates, ontology, PromptConfig(), endpoint,
                               concurrency=3)
        # three threads made every call and one thread holds one call at a time,
        # so the barrier proves three in flight and no more can be
        assert endpoint.most == 3
        assert len(endpoint.threads) == 3
        assert [r.query_id for r in results] == [q.id for q in queries]

    def test_many_threads_rank_each_query_exactly_once(self, setting):
        # more threads than cores and a short switch interval, so a query handed
        # out twice or not at all would show in the per-prompt call counts
        ontology, queries, _, _, _, candidates = setting
        many = [dataclasses.replace(queries[i % len(queries)], id=f"s{i:03d}",
                                    mention=f"{queries[i % len(queries)].mention} <{i}>")
                for i in range(240)]
        slates = [candidates[i % len(queries)] for i in range(240)]
        endpoint = RecordingEndpoint()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = link_queries(many, slates, ontology, PromptConfig(), endpoint,
                                   concurrency=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(endpoint.prompts) == len(set(endpoint.prompts)) == len(many)
        assert [r.query_id for r in results] == [q.id for q in many]

    def test_concurrency_one_starts_no_thread(self, setting):
        ontology, queries, _, _, _, candidates = setting
        with mock.patch.object(threading.Thread, "start",
                               side_effect=AssertionError("a thread was started")):
            results = link_queries(queries, candidates, ontology, PromptConfig(),
                                   ExactMatchMockEndpoint(), concurrency=1)
        assert len(results) == len(queries)

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_raising_query_stops_dispatch(self, setting, tmp_path, concurrency):
        ontology, queries, _, _, _, candidates = setting
        # a marker in each mention shows the endpoint which query a prompt is for
        queries = [dataclasses.replace(q, mention=f"{q.mention} <{i}>")
                   for i, q in enumerate(queries)]
        journal = LinkJournal(tmp_path / "run.jsonl")
        # queries 2 .. concurrency + 1 fail together, one in each thread
        endpoint = RaisingEndpoint(2, concurrency)
        with pytest.raises(RuntimeError) as raised:
            link_queries(queries, candidates, ontology, PromptConfig(), endpoint,
                         concurrency=concurrency, journal=journal)
        # the earliest failing query in input order, whatever the finishing order
        assert str(raised.value) == "<2>"
        # no query is started once one has failed
        assert sorted(endpoint.called) == list(range(concurrency + 2))
        rows = [json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()]
        assert sorted(row["query_id"] for row in rows) == [queries[0].id, queries[1].id]

    def test_interrupt_stops_dispatch(self, setting, tmp_path, monkeypatch):
        ontology, queries, _, _, _, candidates = setting
        endpoint = InterruptedEndpoint()
        acquire = threading.Semaphore.acquire

        def releasing_acquire(semaphore, *args, **kwargs):
            # the caller waits for its helpers on a semaphore; helpers park on their own
            if threading.get_ident() == endpoint.caller:
                endpoint.released.set()
            return acquire(semaphore, *args, **kwargs)

        monkeypatch.setattr(threading.Semaphore, "acquire", releasing_acquire)
        journal = LinkJournal(tmp_path / "run.jsonl")
        with pytest.raises(KeyboardInterrupt):
            link_queries(queries, candidates, ontology, PromptConfig(), endpoint,
                         concurrency=2, journal=journal)
        # the helper finished the call it held and started no other
        assert endpoint.calls == 2
        rows = [json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()]
        assert [row["query_id"] for row in rows] in ([queries[0].id], [queries[1].id])

    def test_base_exception_on_a_helper_propagates(self, setting, monkeypatch):
        ontology, queries, _, _, _, candidates = setting
        # the helper's thread ends with the Halt too; keep it off stderr
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        with pytest.raises(Halt):
            link_queries(queries, candidates, ontology, PromptConfig(), HaltingEndpoint(),
                         concurrency=2)


class TestLentHelpers:
    def test_warm_calls_start_no_thread(self, setting):
        ontology, queries, _, _, _, candidates = setting
        endpoint = ExactMatchMockEndpoint()
        link_queries(queries, candidates, ontology, PromptConfig(), endpoint, concurrency=3)
        with mock.patch.object(threading.Thread, "start",
                               side_effect=AssertionError("a thread was started")):
            for _ in range(50):
                results = link_queries(queries, candidates, ontology, PromptConfig(),
                                       endpoint, concurrency=3)
        assert [r.query_id for r in results] == [q.id for q in queries]

    def test_concurrent_calls_each_hold_all_their_helpers(self, setting):
        ontology, queries, _, _, _, candidates = setting
        # six threads must be in flight at once for the first six calls to
        # pass the barrier: each call's caller and both of its helpers
        endpoint = InFlightEndpoint(6)
        results = {}

        def call(name):
            results[name] = link_queries(queries, candidates, ontology, PromptConfig(),
                                         endpoint, concurrency=3)

        callers = [threading.Thread(target=call, args=(name,)) for name in "ab"]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
            assert not caller.is_alive()
        assert endpoint.most == 6
        assert len(endpoint.threads) == 6
        for name in "ab":
            assert [r.query_id for r in results[name]] == [q.id for q in queries]

    def test_helper_ended_by_a_base_exception_is_not_lent_again(self, setting, monkeypatch):
        ontology, queries, _, _, _, candidates = setting
        ended = []
        reported = threading.Event()

        def excepthook(args):
            ended.append(args.exc_type)
            reported.set()

        monkeypatch.setattr(threading, "excepthook", excepthook)
        results = []

        def halted_then_linked():
            with pytest.raises(Halt):
                link_queries(queries, candidates, ontology, PromptConfig(),
                             HaltingEndpoint(), concurrency=2)
            results.extend(link_queries(queries, candidates, ontology, PromptConfig(),
                                        ExactMatchMockEndpoint(), concurrency=2))

        assert finishes(halted_then_linked)
        # the helper's thread ended with its Halt
        assert reported.wait(30)
        assert ended == [Halt]
        assert [r.query_id for r in results] == [q.id for q in queries]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_helpers(self, setting):
        ontology, queries, _, _, _, candidates = setting
        link = functools.partial(link_queries, queries, candidates, ontology, PromptConfig(),
                                 ExactMatchMockEndpoint(), concurrency=2)
        link()  # the parent now has an idle helper, which the child does not
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if len(link()) == len(queries) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (reaped := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if reaped[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its link call")
        assert os.waitstatus_to_exitcode(reaped[1]) == 0


class TestTokenBudget:
    @pytest.mark.parametrize("budget", [0, -1])
    def test_validated(self, setting, budget):
        ontology, queries, _, _, _, candidates = setting
        with pytest.raises(ValueError, match="token_budget"):
            link_queries(queries, candidates, ontology, PromptConfig(),
                         ExactMatchMockEndpoint(), token_budget=budget)
        with pytest.raises(ValueError, match="token_budget"):
            link_queries([], [], ontology, PromptConfig(),
                         ExactMatchMockEndpoint(), token_budget=budget)

    def test_budgeted_record_then_replay(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        bare = PromptConfig(include_candidate_context=False)
        budget = max(estimate_tokens(fit_prompt(q, slate, ontology, bare))
                     for q, slate in zip(queries, candidates))
        path = tmp_path / "transcript.jsonl"
        inner = RecordingEndpoint()
        recorded = link_queries(queries, candidates, ontology, PromptConfig(),
                                TranscriptStore(path, inner), token_budget=budget)
        # the budget shed context from the prompts that were sent
        sent = inner.prompts
        assert max(estimate_tokens(p) for p in sent) <= budget
        assert any(p != fit_prompt(q, slate, ontology, PromptConfig())
                   for p, q, slate in zip(sent, queries, candidates))

        replayed = link_queries(queries, candidates, ontology, PromptConfig(),
                                TranscriptStore(path), token_budget=budget)
        assert stable_fields(replayed) == stable_fields(recorded)
        with pytest.raises(TranscriptMiss):
            link_queries(queries, candidates, ontology, PromptConfig(),
                         TranscriptStore(path))

    def test_reask_at_the_budget_is_not_sent(self, setting):
        ontology, queries, _, _, _, candidates = setting
        prompt = fit_prompt(queries[0], candidates[0], ontology, PromptConfig())
        endpoint = ScriptedEndpoint(["mumble"] * 2)
        [result] = link_queries(queries[:1], candidates[:1], ontology, PromptConfig(),
                                endpoint, token_budget=estimate_tokens(prompt))
        assert result.selection.kind is SelectionKind.PARSE_FAILURE
        assert result.attempts == 1
        assert endpoint.prompts == [prompt]


class TestMockNoneLabel:
    @pytest.mark.parametrize("mock_endpoint", [ExactMatchMockEndpoint, KeywordMockEndpoint])
    @pytest.mark.parametrize("label", ["N/A", "(none)", " Nothing fits "])
    def test_abstention_answers_the_prompts_label(self, setting, mock_endpoint, label):
        ontology, _, _, _, _, candidates = setting
        # no option is named after the mention and no word of it is in a
        # description; a source context that reads like a none label does
        # not change the answer, which is the prompt's own label
        query = Query(id="q", mention="zzzz qqqq", context=label)
        [result] = link_queries([query], candidates[:1], ontology, PromptConfig(),
                                mock_endpoint())
        assert result.selection.kind is SelectionKind.NONE_OF_THE_ABOVE
        assert result.selection.raw_response == "None"
        assert result.attempts == 1


class TestJournal:
    def test_row_round_trip(self, setting):
        ontology, queries, _, _, _, candidates = setting
        result = link_queries(
            queries[:1], candidates[:1], ontology, PromptConfig(),
            ExactMatchMockEndpoint(),
        )[0]
        row = journal_row(result, candidates[0])
        rebuilt = result_from_row(row)
        assert rebuilt.query_id == result.query_id
        assert rebuilt.resolved == result.resolved
        assert rebuilt.selection == result.selection
        assert rebuilt.prompt_digest == result.prompt_digest

    def test_appended_rows_are_held_without_their_slate(self, tmp_path):
        # a slate of ten is most of a row, and nothing reads it back in the run
        slate = [Candidate(f"RD:{i:05d}", 0.9 - i / 100, Variant.NAME_ONLY) for i in range(10)]
        journal, rows = LinkJournal(tmp_path / "run.jsonl"), 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(rows):
                selection = Selection(SelectionKind.OPTION, "option 1", index=1)
                result = LinkResult(f"q{i}", selection, slate[1].concept_id, f"{i:064x}", 1, 0.001)
                journal.append(journal_row(result, slate))
            held = (tracemalloc.get_traced_memory()[0] - before) / rows
        finally:
            tracemalloc.stop()
        assert held < 1500
        # the file keeps every slate
        with open(tmp_path / "run.jsonl", encoding="utf-8") as handle:
            assert all(len(json.loads(line)["candidates"]) == 10 for line in handle)

    def test_full_resume_issues_no_calls(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        journal = LinkJournal(tmp_path / "run.jsonl")
        first = CountingExactMatch()
        results = link_queries(
            queries, candidates, ontology, PromptConfig(), first, journal=journal
        )
        assert first.calls == len(queries)

        resumed_journal = LinkJournal(tmp_path / "run.jsonl")
        second = CountingExactMatch()
        resumed = link_queries(
            queries, candidates, ontology, PromptConfig(), second,
            journal=resumed_journal,
        )
        assert second.calls == 0
        assert stable_fields(resumed) == stable_fields(results)

    def test_partial_resume_calls_only_missing(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        half = len(queries) // 2
        journal = LinkJournal(tmp_path / "run.jsonl")
        link_queries(
            queries[:half], candidates[:half], ontology, PromptConfig(),
            ExactMatchMockEndpoint(), journal=journal,
        )

        endpoint = CountingExactMatch()
        results = link_queries(
            queries, candidates, ontology, PromptConfig(), endpoint,
            journal=LinkJournal(tmp_path / "run.jsonl"),
        )
        assert endpoint.calls == len(queries) - half
        assert [r.query_id for r in results] == [q.id for q in queries]

    def test_config_change_invalidates_journal(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        journal = LinkJournal(tmp_path / "run.jsonl")
        link_queries(queries, candidates, ontology, PromptConfig(),
                     ExactMatchMockEndpoint(), journal=journal)

        endpoint = CountingExactMatch()
        primed = PromptConfig(one_shot=OneShotExample("q", "0: A", "option 0"))
        link_queries(
            queries, candidates, ontology, primed,
            endpoint, journal=LinkJournal(tmp_path / "run.jsonl"),
        )
        # the example appears in every prompt, so every digest changes and
        # nothing can be reused
        assert endpoint.calls == len(queries)

    def test_transport_errors_not_journaled_then_retried(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        journal = LinkJournal(tmp_path / "run.jsonl")
        flaky = FlakyEndpoint(failures=3)
        results = link_queries(
            queries, candidates, ontology, PromptConfig(), flaky,
            concurrency=1, journal=journal,
        )
        failed = [r for r in results if r.selection.kind is SelectionKind.TRANSPORT_ERROR]
        assert len(failed) == 3
        assert len(journal) == len(queries) - 3

        endpoint = CountingExactMatch()
        retried = link_queries(
            queries, candidates, ontology, PromptConfig(), endpoint,
            journal=LinkJournal(tmp_path / "run.jsonl"),
        )
        assert endpoint.calls == 3
        assert all(
            r.selection.kind is not SelectionKind.TRANSPORT_ERROR for r in retried
        )

    def test_empty_slate_journaled_under_empty_digest(self, setting, tmp_path):
        ontology, queries, _, _, _, _ = setting
        journal = LinkJournal(tmp_path / "run.jsonl")
        results = link_queries(
            queries[:1], [[]], ontology, PromptConfig(),
            ExactMatchMockEndpoint(), journal=journal,
        )
        empty_digest = hashlib.sha256(b"").hexdigest()
        assert results[0].selection.kind is SelectionKind.NONE_OF_THE_ABOVE
        assert results[0].prompt_digest == empty_digest
        assert journal.get(queries[0].id, empty_digest, []) is not None

        endpoint = CountingExactMatch()
        link_queries(
            queries[:1], [[]], ontology, PromptConfig(), endpoint,
            journal=LinkJournal(tmp_path / "run.jsonl"),
        )
        assert endpoint.calls == 0

    @pytest.mark.parametrize("corrupt", [lambda row: row.pop("kind"),
                                         lambda row: row.update(kind="bogus")],
                             ids=["missing-kind", "bogus-kind"])
    def test_row_that_cannot_be_replayed_is_asked_again(self, setting, tmp_path, caplog,
                                                         corrupt):
        ontology, queries, _, _, _, candidates = setting
        path = tmp_path / "run.jsonl"
        first = link_queries(queries, candidates, ontology, PromptConfig(),
                             ExactMatchMockEndpoint(), concurrency=1, journal=LinkJournal(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(rows[0])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

        endpoint = RecordingEndpoint()
        with caplog.at_level("WARNING"):
            resumed = link_queries(queries, candidates, ontology, PromptConfig(), endpoint,
                                   journal=LinkJournal(path))
        assert [ranker_module.prompt_digest(p) for p in endpoint.prompts] == [rows[0]["digest"]]
        assert stable_fields(resumed) == stable_fields(first)
        assert "cannot replay" in caplog.text
        # the fresh row, appended last, replaces the bad one on the next load
        again = CountingExactMatch()
        link_queries(queries, candidates, ontology, PromptConfig(), again,
                     journal=LinkJournal(path))
        assert again.calls == 0

    @staticmethod
    def link_aspirin(ids, path, endpoint):
        """Link "aspirin" against the slate [ids[0] "aspirin", ids[1] "ibuprofen"]."""
        ontology = ontology_from("drugs", [Concept(ids[0], "aspirin"),
                                           Concept(ids[1], "ibuprofen")])
        slate = [Candidate(cid, 0.5, Variant.NAME_ONLY) for cid in ids]
        [result] = link_queries([Query(id="q1", mention="aspirin")], [slate], ontology,
                                PromptConfig(), endpoint, journal=LinkJournal(path))
        return result

    def test_row_naming_an_id_off_the_slate_is_asked_again(self, tmp_path, caplog):
        path = tmp_path / "run.jsonl"
        assert self.link_aspirin(["OLD1", "B"], path, ExactMatchMockEndpoint()).resolved == "OLD1"
        # prompts show names, not ids, so the new slate's prompt has the old digest
        endpoint = CountingExactMatch()
        with caplog.at_level("WARNING"):
            result = self.link_aspirin(["NEW1", "B"], path, endpoint)
        assert result.resolved == "NEW1"
        assert endpoint.calls == 1
        assert "cannot replay" in caplog.text

    @pytest.mark.parametrize("change", [{"index": 2}, {"index": -1, "resolved": "B"},
                                        {"index": 1}],
                             ids=["past-the-end", "negative", "other-candidate"])
    def test_option_row_off_its_slate_is_asked_again(self, tmp_path, change):
        path = tmp_path / "run.jsonl"
        self.link_aspirin(["OLD1", "B"], path, ExactMatchMockEndpoint())
        [row] = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text(json.dumps({**row, **change}) + "\n")

        endpoint = CountingExactMatch()
        assert self.link_aspirin(["OLD1", "B"], path, endpoint).resolved == "OLD1"
        assert endpoint.calls == 1

    def test_tolerates_truncated_tail(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        path = tmp_path / "run.jsonl"
        journal = LinkJournal(path)
        link_queries(queries[:2], candidates[:2], ontology, PromptConfig(),
                     ExactMatchMockEndpoint(), journal=journal)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"query_id": "q9999", "dig')

        reloaded = LinkJournal(path)
        assert len(reloaded) == 2

    def test_journal_rows_are_json_lines(self, setting, tmp_path):
        ontology, queries, _, _, _, candidates = setting
        path = tmp_path / "run.jsonl"
        link_queries(queries[:2], candidates[:2], ontology, PromptConfig(),
                     ExactMatchMockEndpoint(), journal=LinkJournal(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert {"query_id", "digest", "kind", "resolved", "candidates"} <= row.keys()
            assert all({"cid", "score"} == c.keys() for c in row["candidates"])
