"""Prompt construction, strict response parsing, and the ranking loop.

The prompt lists retrieved candidates as numbered options (retrieval order,
never shuffled), optionally with their descriptions and the query's source
context, and always offers a final none-of-the-above option labelled
``None``. The response grammar accepts "option N", a standalone "N:"/"N"
line, or the none label, in that priority; anything else is a ParseFailure
and triggers one terse re-ask before giving up. :func:`parse_prompt` reads
a rendered prompt back, so this module owns the template both ways.
"""

from __future__ import annotations

import hashlib
import re
import time
import unicodedata
from dataclasses import dataclass
from enum import Enum

from .errors import (
    EmptyCandidates,
    PromptBudgetExceeded,
    ServiceError,
    UnknownId,
    UnresolvableCandidate,
)
from .memory import Candidate
from .ontology import Ontology, Query
from .textutil import truncate_at_word

NONE_LABEL = "None"  # the none-of-the-above option's label, and the answer that picks it
MAX_OPTION_CONTEXT_CHARS = 600  # an option's description is cut to this many characters

# line markers of the template, which build_prompt writes and parse_prompt reads
QUERY_MARKER = "Query term: "
OPTIONS_MARKER = "Options:"
ABSTRACT_OPEN = "<abstract>"
ABSTRACT_CLOSE = "</abstract>"
OPTION_SEP = " | "
_OPTION_LINE = re.compile(r"^(\d+): (.*)$")

# "option N" anywhere, then a line that is "N" or starts "N:", in priority order
_OPTION_RULES = (
    re.compile(r"\boption\s+(\d+)", re.IGNORECASE),
    re.compile(r"^[ \t]*(\d+)[ \t]*(?::|$)", re.MULTILINE),
)
# then the none label with no word character right before or after it
_NONE_RULE = re.compile(rf"(?<!\w){re.escape(NONE_LABEL)}(?!\w)", re.IGNORECASE)


class SelectionKind(Enum):
    OPTION = "option"
    NONE_OF_THE_ABOVE = "none"
    PARSE_FAILURE = "parse_failure"
    TRANSPORT_ERROR = "transport_error"


@dataclass(frozen=True, slots=True)
class Selection:
    """What the model picked, plus the raw text it said."""

    kind: SelectionKind
    raw_response: str
    index: int | None = None

    def __post_init__(self) -> None:
        if (self.kind is SelectionKind.OPTION) != (self.index is not None):
            raise ValueError("index is present exactly when kind is OPTION")


@dataclass(frozen=True, slots=True)
class LinkResult:
    query_id: str
    selection: Selection
    resolved: str | None
    prompt_digest: str
    attempts: int
    latency: float

    def __post_init__(self) -> None:
        if (self.selection.kind is SelectionKind.OPTION) != (self.resolved is not None):
            raise ValueError("resolved is present exactly when an option was chosen")


@dataclass(frozen=True)
class OneShotExample:
    """A worked example block: query text, its options text, the answer."""

    query: str
    options: str
    answer: str


@dataclass(frozen=True)
class PromptConfig:
    include_source_context: bool = True
    include_candidate_context: bool = True
    one_shot: OneShotExample | None = None

    def __post_init__(self) -> None:
        for name in ("include_source_context", "include_candidate_context"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")


def build_prompt(
    query: Query,
    candidates: list[Candidate],
    ontology: Ontology,
    config: PromptConfig,
    *,
    token_budget: int | None = None,
) -> str:
    """Render the ranking prompt; deterministic for identical inputs.

    A prompt over ``token_budget`` estimated tokens sheds candidate
    context: the per-option description cut halves while it stays at least
    50 characters, 600 to 300, 150 and 75, then descriptions go entirely.
    Raises PromptBudgetExceeded only when even the bare prompt does not fit.
    """
    chars = MAX_OPTION_CONTEXT_CHARS if config.include_candidate_context else None
    prompt = _render(query, candidates, ontology, config, chars)
    while token_budget is not None and estimate_tokens(prompt) > token_budget:
        if chars is None:
            raise PromptBudgetExceeded(estimate_tokens(prompt), token_budget)
        chars = chars // 2 if chars >= 100 else None
        prompt = _render(query, candidates, ontology, config, chars)
    return prompt


def _render(query: Query, candidates: list[Candidate], ontology: Ontology,
            config: PromptConfig, option_chars: int | None) -> str:
    """:func:`build_prompt` with each description cut to ``option_chars``, or left out at None."""
    if not candidates:
        raise EmptyCandidates()
    positions = []
    for cand in candidates:
        try:
            positions.append(ontology.position(cand.concept_id))
        except UnknownId:
            raise UnresolvableCandidate(cand.concept_id) from None

    lines: list[str] = [
        "Task: identify which numbered option denotes the same concept as "
        f"the query term. If no option matches, answer {NONE_LABEL}.",
        "",
    ]
    if config.one_shot is not None:
        ex = config.one_shot
        lines += [
            "Example:",
            f"{QUERY_MARKER}{ex.query}",
            OPTIONS_MARKER,
            ex.options,
            f"Answer: {ex.answer}",
            "",
        ]
    lines.append(f"{QUERY_MARKER}{query.mention}")
    if config.include_source_context and query.context:
        lines += [ABSTRACT_OPEN, query.context, ABSTRACT_CLOSE]
    lines += ["", OPTIONS_MARKER]
    names, descriptions = ontology.names, ontology.descriptions
    for i, position in enumerate(positions):
        option = f"{i}: {names[position]}"
        description = descriptions[position]
        if option_chars is not None and description:
            option += OPTION_SEP + truncate_at_word(description, option_chars)
        lines.append(option)
    lines += [
        f"{NONE_LABEL}: none of the above options match",
        "",
        f"Answer with exactly one option number or {NONE_LABEL}, "
        "then briefly justify your choice.",
    ]
    return "\n".join(lines)


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


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def parse_response(text: str, n_options: int) -> Selection:
    """Map a raw model response to a Selection; total, never raises.

    Priority: (1) "option N" anywhere, case-insensitive; (2) a standalone
    line "N:" or exactly "N"; (3) the none label with no word character
    right before or after it, case-insensitive. Within a rule
    the earliest text position wins; indices >= n_options never match,
    however many digits they have. No rule firing means ParseFailure.
    """
    if n_options < 1:
        raise ValueError(f"n_options must be >= 1, got {n_options}")

    for rule in _OPTION_RULES:
        for match in rule.finditer(text):
            # int() refuses runs past its digit limit, so leading zeros go and
            # the length is checked first; \d also matches other scripts' digits
            digits = "".join(str(unicodedata.decimal(c)) for c in match.group(1))
            digits = digits.lstrip("0") or "0"
            if len(digits) <= len(str(n_options)) and int(digits) < n_options:
                return Selection(SelectionKind.OPTION, text, index=int(digits))

    if _NONE_RULE.search(text):
        return Selection(SelectionKind.NONE_OF_THE_ABOVE, text)

    return Selection(SelectionKind.PARSE_FAILURE, text)


def estimate_tokens(text: str) -> int:
    """Crude chars/4 token estimate used for the prompt budget guard."""
    return len(text) // 4 + 1


def _rank_prompt(query: Query, candidates: list[Candidate], endpoint,
                 prompt: str, digest: str, token_budget: int | None) -> LinkResult:
    """Rank one query of :func:`link_queries` from its fitted ``prompt`` and its ``digest``.

    ``prompt`` is ``""`` when there are no candidates.
    """
    if not candidates:
        return LinkResult(
            query_id=query.id,
            selection=Selection(SelectionKind.NONE_OF_THE_ABOVE, ""),
            resolved=None,
            prompt_digest=digest,
            attempts=0,
            latency=0.0,
        )

    started = time.monotonic()
    ask = prompt
    for attempts in (1, 2):  # the ask and at most one re-ask
        try:
            raw = endpoint.complete(ask)
        except ServiceError as exc:
            selection = Selection(SelectionKind.TRANSPORT_ERROR, str(exc))
            break
        selection = parse_response(raw, len(candidates))
        if selection.kind is not SelectionKind.PARSE_FAILURE:
            break
        ask = prompt + f"\nAnswer with only the option number or {NONE_LABEL}."
        if token_budget is not None and estimate_tokens(ask) > token_budget:
            break
    latency = time.monotonic() - started

    resolved = None
    if selection.kind is SelectionKind.OPTION:
        assert selection.index is not None
        resolved = candidates[selection.index].concept_id
    return LinkResult(
        query_id=query.id,
        selection=selection,
        resolved=resolved,
        prompt_digest=digest,
        attempts=attempts,
        latency=latency,
    )
