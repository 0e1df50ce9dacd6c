"""Completion endpoints: HTTP, transcript record/replay, and offline mocks.

An endpoint is anything with ``complete(prompt) -> str`` and an optional
``token_budget`` attribute. The HTTP endpoint speaks a chat-style JSON
shape with temperature 0. Transcripts key responses by the SHA-256 of the
prompt, so a replayed run is byte-identical to the recorded one and needs
no network at all.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import TransportError, TranscriptMiss
from .fileio import KeyedLog
from .ranker import (
    ABSTRACT_CLOSE,
    ABSTRACT_OPEN,
    OPTION_SEP,
    OPTIONS_MARKER,
    QUERY_MARKER,
    prompt_digest,
)
from .transport import new_session, post_json

_OPTION_LINE = re.compile(r"^(\d+): (.*)$")


class HttpCompletionEndpoint:
    """Chat-completion endpoint over HTTP with bounded retries.

    Sends ``{"model", "messages": [{"role": "user", "content": prompt}],
    "temperature": 0}`` and reads the first choice's message content.
    Server errors, rate limiting (429) and transport failures are retried
    with backoff; other client errors fail fast.
    """

    def __init__(
        self,
        url: str,
        model_id: str,
        *,
        timeout: float = 60.0,
        token_budget: int | None = None,
        session: requests.Session | None = None,
    ) -> None:
        if not url:
            raise ValueError("url must be non-empty")
        if token_budget is not None and token_budget < 1:
            raise ValueError("token_budget must be positive")
        self.url = url
        self.model_id = model_id
        self.timeout = timeout
        self.token_budget = token_budget
        self._session = session or new_session()

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        return _extract_content(post_json(self._session, self.url, payload, self.timeout))


def _extract_content(reply: requests.Response) -> str:
    try:
        body = reply.json()
        content = body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(reply.status_code, f"malformed completion body: {exc}")
    if not isinstance(content, str):
        raise TransportError(reply.status_code, "completion content is not a string")
    return content


class TranscriptStore(KeyedLog):
    """Append-only prompt-digest to response log backing record/replay.

    One JSON object per line: ``{"digest": ..., "response": ...}``.
    Loading tolerates a partially written final line, so an interrupted
    recording run resumes cleanly. Saving a response equal to the stored
    one writes nothing.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path, "transcript", lambda row: (row["digest"], row["response"]))

    def __contains__(self, digest: str) -> bool:
        return digest in self._rows

    def lookup(self, digest: str) -> str | None:
        return self._rows.get(digest)

    def save(self, digest: str, response: str) -> None:
        self.append({"digest": digest, "response": response})

    def recording(self, inner) -> RecordingEndpoint:
        return RecordingEndpoint(inner, self)

    def replay(self) -> ReplayEndpoint:
        return ReplayEndpoint(self)


class RecordingEndpoint:
    """Pass-through endpoint that writes every exchange to a transcript."""

    def __init__(self, inner, store: TranscriptStore) -> None:
        self._inner = inner
        self._store = store

    @property
    def token_budget(self) -> int | None:
        return getattr(self._inner, "token_budget", None)

    def complete(self, prompt: str) -> str:
        digest = prompt_digest(prompt)
        cached = self._store.lookup(digest)
        if cached is not None:
            return cached
        response = self._inner.complete(prompt)
        self._store.save(digest, response)
        return response


class ReplayEndpoint:
    """Answers only from a transcript; unknown prompts are an error."""

    token_budget = None

    def __init__(self, store: TranscriptStore) -> None:
        self._store = store

    def complete(self, prompt: str) -> str:
        digest = prompt_digest(prompt)
        response = self._store.lookup(digest)
        if response is None:
            raise TranscriptMiss(digest)
        return response


class ScriptedEndpoint:
    """Returns canned responses in order; handy for tests and demos."""

    token_budget = None

    def __init__(self, responses: list[str]) -> None:
        self._responses = list(responses)
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if not self._responses:
            raise TransportError(None, "script exhausted")
        return self._responses.pop(0)


def parse_prompt(prompt: str) -> tuple[str, str | None, list[tuple[str, str | None]]]:
    """Recover (mention, context, options) from a rendered prompt.

    Reads the last query/options blocks so a one-shot example block is
    ignored. Each option is (name, description-or-None). Used by the mock
    endpoints, which answer from the prompt text alone.
    """
    lines = prompt.splitlines()
    query_at = max(
        (i for i, line in enumerate(lines) if line.startswith(QUERY_MARKER)),
        default=None,
    )
    options_at = max(
        (i for i, line in enumerate(lines) if line == OPTIONS_MARKER), default=None
    )
    if query_at is None or options_at is None or options_at < query_at:
        raise ValueError("prompt does not follow the expected template")
    mention = lines[query_at][len(QUERY_MARKER):]

    context = None
    if query_at + 1 < len(lines) and lines[query_at + 1] == ABSTRACT_OPEN:
        try:
            close = lines.index(ABSTRACT_CLOSE, query_at + 2)
        except ValueError:
            raise ValueError("unterminated context block")
        context = "\n".join(lines[query_at + 2 : close])

    options: list[tuple[str, str | None]] = []
    for line in lines[options_at + 1 :]:
        match = _OPTION_LINE.match(line)
        if not match or int(match.group(1)) != len(options):
            break
        body = match.group(2)
        name, sep, description = body.partition(OPTION_SEP)
        options.append((name, description if sep else None))
    if not options:
        raise ValueError("prompt lists no options")
    return mention, context, options


class ExactMatchMockEndpoint:
    """Picks the option whose name equals the query term, else none.

    Comparison is case-insensitive on whitespace-trimmed names. Purely
    lexical, so it is deterministic and needs no network.
    """

    token_budget = None

    def complete(self, prompt: str) -> str:
        mention, _, options = parse_prompt(prompt)
        wanted = mention.strip().lower()
        for i, (name, _) in enumerate(options):
            if name.strip().lower() == wanted:
                return f"option {i}"
        return "None"


class KeywordMockEndpoint:
    """Scores options by description-word overlap with the query context.

    Words of four or more letters from each option's description are
    matched case-insensitively against the query context and term; the
    highest overlap wins, ties going to the earlier option. Without any
    overlap it answers by exact name match only when exactly one option
    carries the queried name, and abstains otherwise: names alone cannot
    separate homonyms. Meant to show context-sensitive ranking without a
    live model.
    """

    token_budget = None
    _word = re.compile(r"[a-z]{4,}")

    def complete(self, prompt: str) -> str:
        mention, context, options = parse_prompt(prompt)
        haystack = set(self._word.findall(f"{mention} {context or ''}".lower()))
        best_index, best_score = None, 0
        for i, (_, description) in enumerate(options):
            if not description:
                continue
            score = len(set(self._word.findall(description.lower())) & haystack)
            if score > best_score:
                best_index, best_score = i, score
        if best_index is not None:
            return f"option {best_index}"
        wanted = mention.strip().lower()
        matches = [
            i for i, (name, _) in enumerate(options)
            if name.strip().lower() == wanted
        ]
        if len(matches) == 1:
            return f"option {matches[0]}"
        return "None"
