"""The file edge: a record reader, one field check, a keyed append log, an atomic writer.

Every JSON Lines input goes through :func:`read_records`, readers check
field types by the one rule of :func:`record_field`, a bad record names its
file through :func:`file_reader`, both append-only logs
(link journal, completion transcript) are a :class:`KeyedLog`, and the
memory file, cache entries, predictions, retrievals and reports are written
through :func:`atomic_writer`.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Hashable, Iterator, TextIO, TypeVar

from .errors import MalformedRecord, MissingField, RecordError

logger = logging.getLogger(__name__)

_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT

# one decoder for every line: raw_decode skips the two whitespace matches
# and the extra frames json.loads spends per call
_decode = json.JSONDecoder().raw_decode

_Reader = TypeVar("_Reader", bound=Callable)


def file_reader(read: _Reader) -> _Reader:
    """Wrap a reader ``read(path, ...)`` so that a bad record names its file as well as its line.

    The wrapper costs one ``try`` per file, nothing per line.
    """
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except RecordError as exc:
            exc.path = str(path)
            raise
    return reader  # type: ignore[return-value]


def read_records(source: str | Path | TextIO) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every record line of a JSON Lines file.

    ``source`` is a path, opened as UTF-8 text, or a text stream decoded
    the same way. Line numbers count universal-newline lines (``\\n``,
    ``\\r\\n`` or a lone ``\\r``). Blank lines and lines starting with ``#``
    are skipped; a line that is not valid JSON, is nested too deep to
    decode, is not a JSON object, or holds a lone surrogate escape such as
    ``"\\ud800"``, which no UTF-8 text can hold, raises
    :class:`MalformedRecord`.
    """
    with (open(source, encoding="utf-8") if isinstance(source, (str, os.PathLike))
          else source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped[0] == "#":
                continue
            try:
                obj, end = _decode(stripped)
            except json.JSONDecodeError:
                end = -1
            except RecursionError:
                raise MalformedRecord(lineno, "invalid JSON (nested too deep)") from None
            if end != len(stripped):
                # the line ends in non-whitespace, so json.loads rejects it
                # too, and its message (extra data, a BOM, ...) is reported
                try:
                    obj = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(lineno, f"invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise MalformedRecord(lineno, "record is not a JSON object")
            # only a \ud800-\udfff escape can decode to a surrogate; the
            # one-character test first is a memchr, so set-up time holds
            if "\\" in stripped and ("\\ud" in stripped or "\\uD" in stripped):
                for key, value in obj.items():
                    try:
                        json.dumps([key, value], ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError:
                        raise MalformedRecord(
                            lineno, f"field {key!r} holds a lone surrogate") from None
                    except RecursionError:
                        # decoded at the very edge of the recursion limit
                        raise MalformedRecord(lineno, "invalid JSON (nested too deep)") from None
            yield lineno, obj


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", list: "a list"}


def record_field(record: object, key: str, lineno: int, kind: type = str, *,
                 required: bool = True):
    """The value of ``key`` in a JSON record, checked to be of type ``kind``.

    A record that is not an object raises :class:`MalformedRecord`, an
    absent required key :class:`MissingField`, and a value of another JSON
    type :class:`MalformedRecord`; null is another type for a required
    field, a bool is not an integer, and an integer is a number (``kind``
    float). An optional field that is absent or null gives None. Both
    errors name ``lineno``.
    """
    if not isinstance(record, dict):
        raise MalformedRecord(lineno, "record is not a JSON object")
    value = record.get(key)
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    if value is None and not required:
        return None
    if key not in record:
        raise MissingField(key, lineno)
    raise MalformedRecord(lineno, f"field {key!r} is not {_KIND_NAMES[kind]}")


class KeyedLog:
    """Append-only JSON Lines log of rows, held in memory by key.

    ``entry(row, lineno)`` maps a row to its (key, value); a later row
    replaces an earlier one with the same key. Loading logs and skips lines
    that are not UTF-8 JSON, that nest too deep to decode, or that ``entry``
    rejects, such as the truncated last line of a killed process; the first
    append then starts a new line after it. An appended row is checked with
    ``lineno`` 0, and one whose value equals the stored one is not written
    again.
    """

    def __init__(self, path: str | Path, what: str,
                 entry: Callable[[dict, int], tuple[Hashable, object]]) -> None:
        self.path = Path(path)
        self._entry = entry
        self._lock = threading.Lock()
        self._rows: dict = {}
        self._unterminated = False
        if self.path.exists():
            with open(self.path, "rb") as handle:
                for lineno, line in enumerate(handle, start=1):
                    self._unterminated = not line.endswith(b"\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        key, value = entry(json.loads(line.decode("utf-8")), lineno)
                        self._rows[key] = value
                    except (ValueError, RecursionError, MalformedRecord):
                        logger.warning("skipping malformed %s line %d in %s",
                                       what, lineno, self.path)

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row: dict) -> None:
        key, value = self._entry(row, 0)
        with self._lock:
            if key in self._rows and self._rows[key] == value:
                return
            data = (("\n" if self._unterminated else "") + json.dumps(row) + "\n").encode()
            try:
                fd = os.open(self.path, _APPEND_FLAGS, 0o666)
            except FileNotFoundError:
                # the directory is made on the first append that misses it,
                # not checked on every row
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, _APPEND_FLAGS, 0o666)
            # until the row is whole, a failed write's fragment must not join the next row
            self._unterminated = True
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            self._rows[key] = value
            self._unterminated = False


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Binary handle on a temp file beside ``path``, renamed over it on success.

    Readers never see a partial file, and a write interrupted by any
    exception leaves the previous version in place and no temp file behind.
    Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through :func:`atomic_writer`."""
    with atomic_writer(path) as handle:
        handle.write(text.encode("utf-8"))
