"""Atomic output files keep the previous version; append logs survive a torn tail."""

from __future__ import annotations

import os

import numpy as np
import pytest

from conceptlinker import (
    Candidate,
    Concept,
    LinkJournal,
    Ontology,
    Query,
    TranscriptStore,
    VectorCache,
    Variant,
    build_memory,
    load_memory,
    save_memory,
    write_ontology,
    write_predictions,
    write_queries,
)

from .conftest import local_provider
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
    ontology = Ontology(f"v{version}", [
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


def write_ontology_version(path, version):
    write_ontology(path, Ontology("t", [Concept(id="C1", name=f"Aspirin {version}")]))


def write_queries_version(path, version):
    write_queries(path, [Query(id="q1", mention=f"aspirin {version}")])


@pytest.mark.parametrize(
    "write", [write_predictions_version, save_memory_version, cache_put_version,
              write_ontology_version, write_queries_version]
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
