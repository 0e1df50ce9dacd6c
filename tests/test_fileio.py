"""The file edge: strict record reading, atomic outputs, append logs that survive a torn tail."""

from __future__ import annotations

import errno
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlinker import (
    Candidate,
    Concept,
    LinkJournal,
    TranscriptStore,
    VectorCache,
    Variant,
    build_memory,
    load_memory,
    save_memory,
    write_predictions,
)
from conceptlinker.errors import MalformedRecord, MissingField
from conceptlinker.fileio import read_records, record_field

from .conftest import local_provider, ontology_from
from .oracles import read_records_ref
from .test_evaluation import linked


class TornFile:
    """Binary file stand-in that writes half of the first chunk, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        data = bytes(data)
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(28, "No space left on device")


def memory_version(version: int):
    ontology = ontology_from(f"v{version}", [
        Concept(id="C1", name="Aspirin", description="pain and fever relief"),
        Concept(id="C2", name=f"Heparin {version}"),
    ])
    return build_memory(ontology, local_provider(dim=32))


def write_predictions_version(path, version):
    write_predictions(path, [linked(f"q{version}", "C0")],
                      [[Candidate("C0", 0.5, Variant.NAME_ONLY)]])


def save_memory_version(path, version):
    save_memory(memory_version(version), path)


def cache_put_version(path, version):
    VectorCache(path.parent).put(path.name, np.full(4, version + 1, dtype=np.float32))


@pytest.mark.parametrize(
    "write", [write_predictions_version, save_memory_version, cache_put_version]
)
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, write):
    target = tmp_path / "artifact"
    write(target, 0)
    before = target.read_bytes()

    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: TornFile(real_fdopen(fd, mode)))
    with pytest.raises(OSError):
        write(target, 1)
    monkeypatch.undo()

    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    write(target, 1)
    assert target.read_bytes() != before


def test_save_memory_creates_missing_directories(tmp_path):
    memory = memory_version(0)
    path = tmp_path / "new" / "dir" / "memory.bin"
    save_memory(memory, path)
    assert load_memory(path).concept_ids == memory.concept_ids


def transcript_row(log, key):
    log.save(key, f"option {key}")


def journal_row(log, key):
    log.append({"query_id": key, "digest": "d", "kind": "none"})


@pytest.mark.parametrize("log_type, add", [(TranscriptStore, transcript_row),
                                           (LinkJournal, journal_row)])
def test_append_after_truncated_tail_starts_a_new_line(tmp_path, log_type, add):
    path = tmp_path / "log.jsonl"
    add(log_type(path), "k1")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "k2", "resp')  # a killed writer's last line

    resumed = log_type(path)
    assert len(resumed) == 1
    add(resumed, "k3")
    add(resumed, "k4")
    assert len(log_type(path)) == 3


@pytest.mark.parametrize("log_type, add", [(TranscriptStore, transcript_row),
                                           (LinkJournal, journal_row)])
def test_append_creates_missing_parent_directories(tmp_path, log_type, add):
    path = tmp_path / "new" / "dir" / "log.jsonl"
    log = log_type(path)
    add(log, "k1")
    add(log, "k2")
    assert len(log_type(path)) == 2


def test_append_writes_one_line_per_new_row(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = LinkJournal(path)
    row = {"query_id": "q1", "digest": "d", "kind": "none"}
    journal.append(row)
    journal.append(dict(row))  # equal to the stored row: not written again
    journal.append({**row, "kind": "option"})
    assert path.read_bytes() == (json.dumps(row) + "\n"
                                 + json.dumps({**row, "kind": "option"}) + "\n").encode()


@pytest.mark.parametrize("torn", [0, 10])
def test_failed_append_is_not_stored_and_its_retry_starts_a_new_line(tmp_path, monkeypatch,
                                                                      torn):
    path = tmp_path / "run.jsonl"
    journal = LinkJournal(path)
    row = {"query_id": "q1", "digest": "d", "kind": "none"}
    write = os.write

    def full_disk(fd, data):
        write(fd, data[:torn])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError):
        journal.append(row)
    monkeypatch.undo()
    assert len(journal) == 0
    journal.append(row)  # not taken for stored, so written now
    line = (json.dumps(row) + "\n").encode()
    assert path.read_bytes() == line[:torn] + b"\n" + line
    assert len(LinkJournal(path)) == 1


# --- the record reader --------------------------------------------------------

def read_outcome(path):
    """read_records' records before its first error, and that error's line and text."""
    records = []
    try:
        for lineno, obj in read_records(path):
            records.append((lineno, obj))
    except MalformedRecord as exc:
        return records, (exc.line, str(exc))
    return records, None


def write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def same_outcome(got, want):
    # NaN is not equal to itself, so records compare as JSON text
    return (json.dumps(got[0]), got[1]) == (json.dumps(want[0]), want[1])


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_objects = st.dictionaries(st.text(max_size=6), _json_values, max_size=4).map(json.dumps)
_lines = st.one_of(
    _objects,
    _objects.map(lambda obj: "\ufeff" + obj),
    st.tuples(_objects, st.text(max_size=6)).map("".join),
    st.tuples(_objects, _objects).map(" ".join),
    _json_values.map(json.dumps),
    st.text(max_size=12),
    st.text(max_size=12).map(lambda text: "#" + text),
    st.just(""),
    st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x85\xa0\u2028\u3000", max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(_lines, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
def test_reader_matches_a_per_line_json_loads_reader(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("records") / "mixed.jsonl"
    write_raw(path, "".join(line + end for line, end in lines))
    assert same_outcome(read_outcome(path), read_records_ref(path))


@pytest.mark.parametrize("text, records, error", [
    ('\ufeff{"id": "a"}\n', [],
     (1, "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")),
    ('{"id": "a"}\n{"id": "a"} x\n', [(1, {"id": "a"})], (2, "invalid JSON (Extra data)")),
    ('{"a": 1}{"b": 2}\n', [], (1, "invalid JSON (Extra data)")),
    ('{"a": 1} {"b": 2}\n', [], (1, "invalid JSON (Extra data)")),
    ('[{"id": "a"}]\n', [], (1, "record is not a JSON object")),
    ('"a"\n', [], (1, "record is not a JSON object")),
    ("3\n", [], (1, "record is not a JSON object")),
    ('{"x": NaN}\n', [(1, {"x": float("nan")})], None),
    ('{"id": "a"}\r\n\r\n{"id": "b"}\r\n', [(1, {"id": "a"}), (3, {"id": "b"})], None),
    ('{"id": "a"}\r# c\r{"id": "b"}', [(1, {"id": "a"}), (3, {"id": "b"})], None),
    ('{"id": "a\u2028b"}\n\x0c{"id": "c"}\x0c\n{"id":\x0c"d"}\n',
     [(1, {"id": "a\u2028b"}), (2, {"id": "c"})], (3, "invalid JSON (Expecting value)")),
    ('{"id": "a\x0cb"}\n', [], (1, "invalid JSON (Invalid control character at)")),
], ids=["bom", "extra-data", "two-objects", "two-objects-spaced", "list", "string", "number",
        "nan", "crlf", "lone-cr", "separators-inside", "control-in-string"])
def test_reader_diagnostics(tmp_path, text, records, error):
    path = tmp_path / "records.jsonl"
    write_raw(path, text)
    if error is not None:
        error = (error[0], f"line {error[0]}: malformed record: {error[1]}")
    assert same_outcome(read_outcome(path), (records, error))
    assert same_outcome(read_records_ref(path), (records, error))


@pytest.mark.parametrize("escape, loaded", [
    ("\\ud83d\\ude00", "\U0001f600"),
    ("\\uD83D\\uDE00", "\U0001f600"),
    ("\\\\ud800", "\\ud800"),  # an escaped backslash, then plain text
])
def test_reader_loads_surrogate_pairs(tmp_path, escape, loaded):
    path = tmp_path / "records.jsonl"
    write_raw(path, f'{{"id": "a{escape}"}}\n')
    assert read_outcome(path) == ([(1, {"id": "a" + loaded})], None)


@pytest.mark.parametrize("line", [
    '{"id": "\\ud800"}',
    '{"id": "\\uDFFF x"}',
    '{"id": "\\ude00\\ud83d"}',  # a pair in the wrong order
    '{"\\ud800": "a"}',
    '{"id": "a", "xs": [{"k": "\\udbff"}]}',
], ids=["high", "low", "reversed", "key", "nested"])
def test_reader_refuses_a_lone_surrogate(tmp_path, line):
    path = tmp_path / "records.jsonl"
    write_raw(path, '{"id": "b"}\n' + line + "\n")
    records, (lineno, message) = read_outcome(path)
    assert (records, lineno) == ([(1, {"id": "b"})], 2)
    assert message.startswith("line 2: malformed record: field ")
    assert message.endswith(" holds a lone surrogate")


def test_reader_refuses_a_surrogate_nested_near_the_recursion_limit(tmp_path):
    # a line that decodes just inside the limit can be too deep to check
    path = tmp_path / "records.jsonl"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit):
        write_raw(path, '{"id": ' + "[" * depth + '"\\ud800"' + "]" * depth + "}\n")
        assert read_outcome(path)[1][1].startswith("line 1: malformed record: ")


# --- the field check ----------------------------------------------------------

@pytest.mark.parametrize("record, kind, required, want", [
    ({"k": "v"}, str, True, "v"),
    ({"k": 3}, int, True, 3),
    ({"k": [1]}, list, True, [1]),
    ({}, str, False, None),
    ({"k": None}, str, False, None),
    ({"k": None}, int, False, None),
])
def test_record_field_returns_a_value_of_its_kind(record, kind, required, want):
    assert record_field(record, "k", 4, kind, required=required) == want


@pytest.mark.parametrize("record, kind, required, detail", [
    ([], str, True, "record is not a JSON object"),
    ("k", str, False, "record is not a JSON object"),
    ({}, str, True, "missing or empty required field 'k'"),
    ({"k": None}, str, True, "field 'k' is not a string"),
    ({"k": 5}, str, False, "field 'k' is not a string"),
    ({"k": True}, int, True, "field 'k' is not an integer"),
    ({"k": 2.0}, int, True, "field 'k' is not an integer"),
    ({"k": "3"}, int, True, "field 'k' is not an integer"),
    ({"k": {"a": 1}}, list, False, "field 'k' is not a list"),
])
def test_record_field_errors_name_their_line(record, kind, required, detail):
    with pytest.raises(MalformedRecord) as exc:
        record_field(record, "k", 4, kind, required=required)
    assert str(exc.value) == f"line 4: malformed record: {detail}"
    assert isinstance(exc.value, MissingField) == detail.startswith("missing")
