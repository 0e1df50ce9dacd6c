"""End-to-end plumbing: embed queries, retrieve, and rank with resume.

Linking keeps a JSON Lines journal beside its output. Each completed query
appends one row keyed by (query_id, prompt digest); a re-run skips every
journaled query whose prompt is unchanged and whose pick is still on its
slate, so an interrupted batch resumes without repeating endpoint calls.
Transport failures are deliberately not journaled, which makes them
retryable.
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path

from .embedding import text_slices
from .fileio import KeyedLog, record_field
from .memory import Candidate, Memory, checked_batch, query_text, retrieve_batch
from .ontology import Ontology, Query
from .ranker import (
    LinkResult,
    PromptConfig,
    Selection,
    SelectionKind,
    _rank_prompt,
    build_prompt,
    prompt_digest,
)

logger = logging.getLogger(__name__)

DEFAULT_CONCURRENCY = 4

# helper threads parked between link_queries calls, each lent to one call
# at a time; the list grows when a call needs more helpers than are idle
_idle: list[_Helper] = []
_idle_lock = threading.Lock()


class _Helper:
    """A daemon thread that runs the tasks it is lent and parks on a semaphore between them.

    After each task it goes back to the idle list and then releases the
    lender's ``done`` semaphore; a task that raises ends the thread, so a
    helper in an unknown state is never lent again.
    """

    def __init__(self) -> None:
        self.wake = threading.Semaphore(0)
        self.task = None
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.wake.acquire()
            (task, done), self.task = self.task, None
            try:
                task()
                task = None  # a parked helper keeps nothing of the call it served
                with _idle_lock:
                    _idle.append(self)
            finally:
                done.release()


def _lend(task, count: int) -> threading.Semaphore:
    """Run ``task`` on ``count`` helpers; the semaphore returned is released as each one ends."""
    with _idle_lock:
        helpers = [_idle.pop() for _ in range(min(count, len(_idle)))]
    helpers += [_Helper() for _ in range(count - len(helpers))]
    done = threading.Semaphore(0)
    for helper in helpers:
        helper.task = (task, done)
        helper.wake.release()
    return done


def _forget_helpers() -> None:
    # a forked child holds none of its parent's threads, and the lock may
    # have been held by one of them
    global _idle, _idle_lock
    _idle, _idle_lock = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def retrieve_for_queries(
    memory: Memory, queries: list[Query], provider, k: int
) -> list[list[Candidate]]:
    """Top-k candidates for each query's mention-plus-context text, in input order.

    Queries are embedded and retrieved a slice of at most 2,048 at a time.
    """
    texts = [query_text(q) for q in queries]
    slates: list[list[Candidate]] = []
    for part in text_slices(len(texts)):
        chunk = texts[part]
        batch = checked_batch(provider.embed_batch(chunk), len(chunk), memory.dim)
        slates += retrieve_batch(memory, batch, k)
    return slates


class LinkJournal(KeyedLog):
    """Append-only per-query detail log that doubles as resume state.

    Rows carry the prompt digest, the selection, the raw response, and the
    candidate slate, so a journaled query can be replayed into a LinkResult
    without touching the endpoint. Rows are keyed by (query id, digest); a
    truncated final line (killed process) is skipped on load. A prompt shows
    names, not ids, so an option row replays only while its index is inside
    the current slate and its resolved id is the candidate at that index.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path, "journal", _journal_entry)

    def get(self, query_id: str, digest: str, slate: list[Candidate]) -> LinkResult | None:
        """The journaled result, or None when there is none or its row cannot be replayed."""
        if (row := self._rows.get((query_id, digest))) is None:
            return None
        try:
            result = result_from_row(row)
            index = result.selection.index
            if index is None or (index >= 0 and slate[index].concept_id == result.resolved):
                return result
        except (KeyError, TypeError, ValueError, IndexError):
            pass
        logger.warning("cannot replay the journal row of %r in %s", query_id, self.path)
        return None


def _journal_entry(row: dict, lineno: int) -> tuple[tuple[str, str], dict]:
    """A row keyed by (query id, digest), held without its slate, which replay never reads."""
    key = (record_field(row, "query_id", lineno), record_field(row, "digest", lineno))
    return key, {field: value for field, value in row.items() if field != "candidates"}


def journal_row(result: LinkResult, candidates: list[Candidate]) -> dict:
    return {
        "query_id": result.query_id,
        "digest": result.prompt_digest,
        "kind": result.selection.kind.value,
        "index": result.selection.index,
        "resolved": result.resolved,
        "raw_response": result.selection.raw_response,
        "attempts": result.attempts,
        "latency": round(result.latency, 6),
        "candidates": [
            {"cid": c.concept_id, "score": round(c.score, 6)} for c in candidates
        ],
    }


def result_from_row(row: dict) -> LinkResult:
    kind = SelectionKind(row["kind"])
    selection = Selection(kind, row["raw_response"], index=row["index"])
    return LinkResult(
        query_id=row["query_id"],
        selection=selection,
        resolved=row["resolved"],
        prompt_digest=row["digest"],
        attempts=row["attempts"],
        latency=row["latency"],
    )


def link_queries(
    queries: list[Query],
    candidates: list[list[Candidate]],
    ontology: Ontology,
    config: PromptConfig,
    endpoint,
    *,
    concurrency: int = DEFAULT_CONCURRENCY,
    journal: LinkJournal | None = None,
    token_budget: int | None = None,
) -> list[LinkResult]:
    """Rank every query against its candidate slate; results in input order.

    An empty slate is none-of-the-above without an endpoint call; a reply
    that does not parse earns one re-ask, and a transport failure is a
    result kind of its own, never a silent none. Every prompt sent, a
    re-ask included, fits ``token_budget`` estimated tokens, when one is
    given. The calling thread and up to ``concurrency - 1`` helper threads
    take pending queries one at a time, so at most ``concurrency``
    completions are in flight; ``concurrency=1`` ranks inline. Helpers are
    lent from a per-process idle list and parked there between calls, so a
    process starts each helper once. The journal, when given, is
    consulted before and appended after each query. Once a query
    raises, or the caller is interrupted, no further query is started; the
    calls in flight finish and are journaled, then the exception of the
    earliest failing query in input order propagates.
    """
    if len(queries) != len(candidates):
        raise ValueError(
            f"{len(queries)} queries but {len(candidates)} candidate lists"
        )
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if token_budget is not None and token_budget < 1:
        raise ValueError("token_budget must be >= 1")

    results: list[LinkResult | None] = [None] * len(queries)
    prompts: list[str] = []
    digests: list[str] = []
    pending: list[int] = []
    # every prompt is hashed here, once: hashlib releases the GIL on long
    # inputs, so hashing on a helper thread hands it over on every query
    for i, (query, slate) in enumerate(zip(queries, candidates)):
        prompts.append(build_prompt(query, slate, ontology, config, token_budget=token_budget)
                       if slate else "")
        digests.append(prompt_digest(prompts[i]))
        if journal is not None:
            results[i] = journal.get(query.id, digests[i], slate)
        if results[i] is None:
            pending.append(i)

    def run_one(i: int) -> LinkResult:
        result = _rank_prompt(queries[i], candidates[i], endpoint, prompts[i], digests[i],
                              token_budget)
        if journal is not None and result.selection.kind is not SelectionKind.TRANSPORT_ERROR:
            journal.append(journal_row(result, candidates[i]))
        return result

    todo = iter(pending)
    lock = threading.Lock()
    stop = threading.Event()
    failures: dict[int, BaseException] = {}

    def drain() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(todo, None)
            if i is None:
                return
            try:
                results[i] = run_one(i)
            except BaseException as exc:
                failures[i] = exc
                stop.set()
                if not isinstance(exc, Exception):
                    raise  # ends a helper's thread, so it is never lent again

    helpers = min(concurrency, len(pending)) - 1
    done = _lend(drain, helpers)
    try:
        drain()
    finally:
        # an interrupt in the caller also stops dispatch; helpers only
        # finish the call they hold
        stop.set()
        for _ in range(helpers):
            done.acquire()
    if failures:
        raise failures[min(failures)]
    return results  # type: ignore[return-value]
