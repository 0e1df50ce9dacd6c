"""Completion endpoints: HTTP, the record/replay transcript, and offline mocks.

An endpoint is anything with ``complete(prompt) -> str``. The prompt
budget is not the endpoint's: it is a setting of the run, which fits every
prompt to it before any endpoint sees one. The HTTP endpoint speaks a
chat-style JSON shape with temperature 0. A transcript is an endpoint too:
it records the replies of the endpoint it wraps by the SHA-256 of the prompt
and replays them, so a replayed run needs no network at all.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from .errors import TransportError, TranscriptMiss
from .fileio import KeyedLog, record_field
from .ranker import NONE_LABEL, parse_prompt, prompt_digest
from .transport import new_session, post_json


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
        session: requests.Session | None = None,
    ) -> None:
        if not url:
            raise ValueError("url must be non-empty")
        self.url = url
        self.model_id = model_id
        self.timeout = timeout
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
    except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(reply.status_code, f"malformed completion body: {exc}")
    if not isinstance(content, str):
        raise TransportError(reply.status_code, "completion content is not a string")
    return content


class TranscriptStore(KeyedLog):
    """Prompt-digest to response log, and the endpoint that records and replays it.

    One JSON object per line: ``{"digest": ..., "response": ...}``. Loading
    skips a truncated final line and any row whose fields are not strings.
    ``complete`` answers a recorded prompt from the log, and sends any other
    to ``inner`` and saves its reply, or raises :class:`TranscriptMiss` when
    there is no ``inner``. Saving a response equal to the stored one writes
    nothing.
    """

    def __init__(self, path: str | Path, inner=None) -> None:
        super().__init__(path, "transcript", _transcript_entry)
        self._inner = inner

    def lookup(self, digest: str) -> str | None:
        return self._rows.get(digest)

    def save(self, digest: str, response: str) -> None:
        self.append({"digest": digest, "response": response})

    def complete(self, prompt: str) -> str:
        digest = prompt_digest(prompt)
        response = self.lookup(digest)
        if response is None:
            if self._inner is None:
                raise TranscriptMiss(digest)
            response = self._inner.complete(prompt)
            self.save(digest, response)
        return response


def _transcript_entry(row: dict, lineno: int) -> tuple[str, str]:
    return record_field(row, "digest", lineno), record_field(row, "response", lineno)


class ScriptedEndpoint:
    """Returns canned responses in order; handy for tests and demos."""

    def __init__(self, responses: list[str]) -> None:
        self._responses = list(responses)
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if not self._responses:
            raise TransportError(None, "script exhausted")
        return self._responses.pop(0)


class ExactMatchMockEndpoint:
    """Picks the option whose name equals the query term, else answers ``None``.

    Comparison is case-insensitive on whitespace-trimmed names. Purely
    lexical, so it is deterministic and needs no network.
    """

    def complete(self, prompt: str) -> str:
        mention, _, options = parse_prompt(prompt)
        wanted = mention.strip().lower()
        for i, (name, _) in enumerate(options):
            if name.strip().lower() == wanted:
                return f"option {i}"
        return NONE_LABEL


class KeywordMockEndpoint:
    """Scores options by description-word overlap with the query context.

    A word is a run of four or more ASCII letters a-z in the text after
    lowercasing. So the Kelvin sign ``K`` lowercases to ``k`` and joins a
    word; ``İ`` lowercases to ``i`` and a combining dot, so it ends the
    word it joins; ``é``, ``ß``, digits and hyphens split a word. An
    option scores the number of distinct words its description shares
    with the query term and context; the highest score wins, ties going
    to the earlier option. Without any overlap it answers by exact name
    match only when exactly one option carries the queried name, and
    answers ``None`` otherwise: names alone cannot
    separate homonyms. Each instance remembers the words of every
    distinct description text it has seen for as long as it exists, so a
    description is tokenised once however many prompts repeat it. Meant
    to show context-sensitive ranking without a live model.
    """

    _word = re.compile(r"[a-z]{4,}")

    def __init__(self) -> None:
        # description text -> its distinct words, interned; threads that
        # race on a new text only compute the same tuple twice
        self._words: dict[str, tuple[str, ...]] = {}

    def _option_words(self, description: str) -> tuple[str, ...]:
        words = self._words.get(description)
        if words is None:
            words = tuple(map(sys.intern, set(self._word.findall(description.lower()))))
            self._words[description] = words
        return words

    def complete(self, prompt: str) -> str:
        mention, context, options = parse_prompt(prompt)
        haystack = set(self._word.findall(f"{mention} {context or ''}".lower()))
        best_index, best_score = None, 0
        for i, (_, description) in enumerate(options):
            if not description:
                continue
            score = len(haystack.intersection(self._option_words(description)))
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
        return NONE_LABEL
