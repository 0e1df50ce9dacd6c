"""Atomic output files: an interrupted write keeps the previous version."""

from __future__ import annotations

import os

import numpy as np
import pytest

from conceptlinker import (
    Candidate,
    Concept,
    Ontology,
    VectorCache,
    Variant,
    build_memory,
    load_memory,
    save_memory,
    write_predictions,
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
