"""Concept inventories and linking queries.

An ontology file is UTF-8 JSON Lines, one object per line with fields
``id`` (required), ``name`` (required) and ``description`` (optional).
A query file is JSON Lines with ``id``, ``mention`` (required),
``context`` and ``gold`` (optional). Lines starting with ``#`` are skipped
in both. Validation stops at the first bad line and the diagnostic names it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import (
    DuplicateId,
    EmptyFile,
    EmptyMention,
    MalformedRecord,
    MissingField,
    UnknownId,
)
from .fileio import atomic_text, read_records
from .textutil import normalize_whitespace, truncate_at_word

DEFAULT_DESCRIPTION_BUDGET = 2000


@dataclass(frozen=True)
class Concept:
    """One ontology entry: a unique id, a canonical name, optional context."""

    id: str
    name: str
    description: str | None = None
    ontology_tag: str = ""


@dataclass(frozen=True)
class Query:
    """One linking request: a mention, optional source context, optional gold id."""

    id: str
    mention: str
    context: str | None = None
    gold: str | None = None


class Ontology:
    """Immutable, id-addressable collection of concepts in file order."""

    def __init__(self, tag: str, concepts: list[Concept]):
        self.tag = tag
        self._concepts = list(concepts)
        self._index = {c.id: c for c in self._concepts}
        if len(self._index) != len(self._concepts):
            counts = Counter(c.id for c in self._concepts)
            dupes = sorted(cid for cid, n in counts.items() if n > 1)
            raise ValueError(f"duplicate concept ids: {dupes}")

    def __len__(self) -> int:
        return len(self._concepts)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self._concepts)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._index

    def get(self, concept_id: str) -> Concept:
        """Look up a concept by id; raises :class:`UnknownId` if absent."""
        try:
            return self._index[concept_id]
        except KeyError:
            raise UnknownId(concept_id) from None


def _required_str(obj: dict, key: str, lineno: int) -> str:
    value = obj.get(key)
    if value is None:
        raise MissingField(key, lineno)
    if not isinstance(value, str):
        raise MalformedRecord(lineno, f"field {key!r} is not a string")
    value = normalize_whitespace(value)
    if not value:
        raise MissingField(key, lineno)
    return value


def _required_id(obj: dict, key: str, lineno: int) -> str:
    # ids are opaque: trim only, never collapse internal whitespace
    value = obj.get(key)
    if value is None:
        raise MissingField(key, lineno)
    if not isinstance(value, str):
        raise MalformedRecord(lineno, f"field {key!r} is not a string")
    value = value.strip()
    if not value:
        raise MissingField(key, lineno)
    return value


def _optional_str(obj: dict, key: str, lineno: int) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise MalformedRecord(lineno, f"field {key!r} is not a string")
    return value


def parse_ontology(
    path: str | Path,
    tag: str,
    *,
    max_description_chars: int = DEFAULT_DESCRIPTION_BUDGET,
) -> Ontology:
    """Load and validate a concept inventory from a JSON Lines file.

    Record order is preserved. Descriptions are whitespace-normalized and
    capped at ``max_description_chars`` ending on a whole word. Fields other
    than ``id``, ``name`` and ``description`` are ignored.
    """
    concepts: list[Concept] = []
    seen: set[str] = set()
    for lineno, obj in read_records(path):
        cid = _required_id(obj, "id", lineno)
        if cid in seen:
            raise DuplicateId(cid, lineno)
        seen.add(cid)
        name = _required_str(obj, "name", lineno)

        description = _optional_str(obj, "description", lineno)
        if description is not None:
            description = normalize_whitespace(description)
            description = truncate_at_word(description, max_description_chars)
            if not description:
                description = None

        concepts.append(
            Concept(id=cid, name=name, description=description, ontology_tag=tag)
        )
    if not concepts:
        raise EmptyFile(str(path))
    return Ontology(tag, concepts)


def write_ontology(path: str | Path, ontology: Ontology) -> None:
    """Serialize back to the JSON Lines format accepted by :func:`parse_ontology`."""
    atomic_text(path, "".join(
        _json_line(id=c.id, name=c.name, description=c.description) for c in ontology
    ))


def _json_line(**fields) -> str:
    """One JSON Lines record holding the fields that are not None, in order."""
    record = {key: value for key, value in fields.items() if value is not None}
    return json.dumps(record, ensure_ascii=False) + "\n"


def parse_queries(path: str | Path) -> list[Query]:
    """Load linking queries from a JSON Lines file, in file order.

    An empty file yields an empty list.
    """
    queries: list[Query] = []
    for lineno, obj in read_records(path):
        qid = _required_id(obj, "id", lineno)
        mention = _optional_str(obj, "mention", lineno)
        if mention is None:
            raise MissingField("mention", lineno)
        mention = normalize_whitespace(mention)
        if not mention:
            raise EmptyMention(lineno)

        context = _optional_str(obj, "context", lineno)
        if context is not None:
            context = normalize_whitespace(context) or None

        gold = _optional_str(obj, "gold", lineno)
        if gold is not None:
            gold = gold.strip()
            if not gold:
                raise MalformedRecord(lineno, "field 'gold' is empty")

        queries.append(Query(id=qid, mention=mention, context=context, gold=gold))
    return queries


def write_queries(path: str | Path, queries: list[Query]) -> None:
    """Serialize queries back to the JSON Lines query format."""
    atomic_text(path, "".join(
        _json_line(id=q.id, mention=q.mention, context=q.context, gold=q.gold)
        for q in queries
    ))
