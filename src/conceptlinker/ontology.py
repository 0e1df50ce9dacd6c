"""Concept inventories and linking queries.

An ontology file is UTF-8 JSON Lines, one object per line with fields
``id`` (required), ``name`` (required) and ``description`` (optional).
A query file is JSON Lines with ``id``, ``mention`` (required) and
``context`` (optional); other fields, ``gold`` included, are ignored, as
gold ids come from a gold file. Lines starting with ``#`` are skipped in
both. Validation stops at the first bad line and the diagnostic names it.
Ids are trimmed; names, descriptions, mentions and contexts follow the
whitespace rule of README's "File formats" section.

An ontology's parsed columns are kept in a sidecar ``.<file name>.columns``
beside it, keyed by the file's SHA-256 and the parse rules' version, so a
later parse of the same bytes decodes no record (README, "File formats").
"""

from __future__ import annotations

import hashlib
import io
import json
import unicodedata
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DuplicateId, EmptyFile, EmptyMention, MalformedRecord, MissingField, UnknownId
from .fileio import atomic_writer, file_reader, read_records, record_field
from .textutil import normalize_whitespace, truncate_at_word

MAX_DESCRIPTION_CHARS = 2000

# the sidecar key besides the file's digest: bump the number whenever
# parse_ontology would return other columns for the same bytes; the
# whitespace rule reads the Unicode database, so its version is part of it
_RULES = [1, unicodedata.unidata_version]


@dataclass(frozen=True, slots=True)
class Query:
    """One linking request: a mention and optional source context."""

    id: str
    mention: str
    context: str | None = None


class Ontology:
    """Immutable, id-addressable concept inventory, held as columns in file order.

    ``ids``, ``names`` and ``descriptions`` are equal-length tuples, one
    position per concept; :meth:`position` maps an id to its index.
    """

    def __init__(self, tag: str, ids: Sequence[str], names: Sequence[str],
                 descriptions: Sequence[str | None]):
        self.tag = tag
        self.ids = tuple(ids)
        self.names = tuple(names)
        self.descriptions = tuple(descriptions)
        if not len(self.ids) == len(self.names) == len(self.descriptions):
            raise ValueError(
                f"column lengths differ: {len(self.ids)} ids, {len(self.names)} names, "
                f"{len(self.descriptions)} descriptions"
            )
        self._positions = dict(zip(self.ids, range(len(self.ids))))
        if len(self._positions) != len(self.ids):
            counts = Counter(self.ids)
            dupes = sorted(cid for cid, n in counts.items() if n > 1)
            raise ValueError(f"duplicate concept ids: {dupes}")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._positions

    def position(self, concept_id: str) -> int:
        """A concept's position in the columns; raises :class:`UnknownId` if absent."""
        try:
            return self._positions[concept_id]
        except KeyError:
            raise UnknownId(concept_id) from None


def _refused(obj: dict, key: str, lineno: int) -> MissingField:
    """The error for a required string field the inlined check refused.

    :func:`record_field` raises for an absent key or a value of another
    type; what it accepts was refused for being blank.
    """
    record_field(obj, key, lineno)
    return MissingField(key, lineno)


def _cached_columns(sidecar: Path, key: dict) -> list | None:
    """The columns ``sidecar`` holds under ``key``, or None for a miss.

    A sidecar counts only when its header equals ``key`` plus the CRC-32 of
    its body, and the body is three lists of strings, descriptions also
    holding nulls; :class:`Ontology` checks their lengths and ids.
    """
    try:
        with open(sidecar, "rb") as fh:
            head = json.loads(fh.readline())
            body = fh.read()
        if head != {**key, "crc32": zlib.crc32(body)}:
            return None
        # json.loads would decode bytes with surrogatepass, a slower codec path
        columns = json.loads(body.decode("utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    if (type(columns) is list and len(columns) == 3
            and all(type(column) is list for column in columns)
            and set(map(type, columns[0])) | set(map(type, columns[1])) == {str}
            and set(map(type, columns[2])) <= {str, type(None)}):
        return columns
    return None


@file_reader
def parse_ontology(path: str | Path, tag: str) -> Ontology:
    """Load and validate a concept inventory from a JSON Lines file.

    Record order is preserved. Names and descriptions are
    whitespace-normalized, and descriptions are capped at
    ``MAX_DESCRIPTION_CHARS``, ending on a whole word. Fields other than
    ``id``, ``name`` and ``description`` are ignored. The file is opened
    once; its columns come from the sidecar when it matches its bytes, and
    a parse that succeeds writes the sidecar, unless the directory refuses.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sidecar = Path(path).with_name(f".{Path(path).name}.columns")
    key = {"source": hashlib.sha256(data).hexdigest(), "rules": _RULES}
    columns = _cached_columns(sidecar, key)
    if columns is not None:
        try:
            return Ontology(tag, *columns)
        except ValueError:  # unequal columns or a repeated id: parse again
            pass
    ids: list[str] = []
    names: list[str] = []
    descriptions: list[str | None] = []
    seen: set[str] = set()
    # record_field's checks, inlined: this loop runs once per concept on
    # every parse that misses the sidecar, and only its errors take the call
    for lineno, obj in read_records(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
        cid = obj.get("id")
        if not isinstance(cid, str) or not (cid := cid.strip()):
            raise _refused(obj, "id", lineno)
        if cid in seen:
            raise DuplicateId(cid, lineno)
        seen.add(cid)
        name = obj.get("name")
        if not isinstance(name, str) or not (name := normalize_whitespace(name)):
            raise _refused(obj, "name", lineno)

        description = obj.get("description")
        if description is not None:
            if not isinstance(description, str):
                record_field(obj, "description", lineno, required=False)  # raises
            description = normalize_whitespace(description)
            if len(description) > MAX_DESCRIPTION_CHARS:
                description = truncate_at_word(description, MAX_DESCRIPTION_CHARS)
            description = description or None

        ids.append(cid)
        names.append(name)
        descriptions.append(description)
    if not ids:
        raise EmptyFile(str(path))
    ontology = Ontology(tag, ids, names, descriptions)
    body = json.dumps([ids, names, descriptions], ensure_ascii=False).encode("utf-8")
    try:
        with atomic_writer(sidecar) as handle:
            handle.write(json.dumps({**key, "crc32": zlib.crc32(body)}).encode() + b"\n")
            handle.write(body)
    except OSError:
        pass  # a read-only directory: every parse reads the records, as without a sidecar
    return ontology


@file_reader
def parse_queries(path: str | Path) -> list[Query]:
    """Load linking queries from a JSON Lines file, in file order.

    An empty file yields an empty list, and a repeated id raises
    :class:`MalformedRecord` naming its line. Fields other than ``id``,
    ``mention`` and ``context`` are ignored.
    """
    queries: dict[str, Query] = {}
    for lineno, obj in read_records(path):
        # ids are opaque: trim only, never collapse internal whitespace
        qid = record_field(obj, "id", lineno).strip()
        if not qid:
            raise MissingField("id", lineno)
        if qid in queries:
            raise MalformedRecord(lineno, f"duplicate query id {qid!r}")
        mention = normalize_whitespace(record_field(obj, "mention", lineno))
        if not mention:
            raise EmptyMention(lineno)
        context = record_field(obj, "context", lineno, required=False)
        if context is not None:
            context = normalize_whitespace(context) or None
        queries[qid] = Query(id=qid, mention=mention, context=context)
    return list(queries.values())
