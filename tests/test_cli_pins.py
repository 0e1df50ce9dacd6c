"""The CLI's output pins on ``demos/data``.

Each pin is the sha256 of a file a command writes from the demo inputs.
Every CLI check runs in tier-1 and nowhere else: these run ``cli.main`` in
process, and one runs ``python -m conceptlinker.cli`` under
``OPENBLAS_NUM_THREADS=1``, which must be set before numpy loads. Every pin
is checked twice, on a fresh copy of the demo inputs: cold, where each
command that reads the ontology parses it, and warm, where each reads the
columns sidecar an earlier parse wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import conceptlinker

from .conftest import run_cli

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

PINS = {
    "memory": "db448742a771c4317258512364c6f6a6e553e32c6eecff98487b011b0e8e5eaa",
    "retrieve": "4085e05dbcf613a78c675dc1164d98965a823a55814e901670d32a3f2ba74e5e",
    "link": "d5600f3da78ce0b520a4c677696fbcb3317497dff965a156c3985a59d3993941",
    "ablate": "e97d0a5a54675982a2ff4c5afa61cd9c68cc9ed361e8e229f56c0da70012a63f",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pinned(demo: Path, state: str, *argv: str):
    """``run_cli`` of a command that reads the ontology, ``cold`` or ``warm``.

    Cold, the command starts with no sidecar and writes one; warm, it reads
    the one there and leaves it as it was.
    """
    sidecar = demo / "data" / ".ontology.jsonl.columns"
    if state == "cold":
        sidecar.unlink(missing_ok=True)
    before = sidecar.stat() if state == "warm" else None
    run = run_cli(demo, *argv)
    assert (run.code, run.err) == (0, "")
    after = sidecar.stat()
    if before is not None:
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    return run


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    """A directory holding a fresh copy of the demo inputs, a ``run.ini`` of
    them, and the memory built from them cold (``memory.bin``), then warm
    (``memory-warm.bin``)."""
    tmp = tmp_path_factory.mktemp("pins")
    data = shutil.copytree(DATA, tmp / "data")
    (tmp / "run.ini").write_text(
        "[paths]\n"
        f"ontology = {data / 'ontology.jsonl'}\n"
        f"queries = {data / 'queries.jsonl'}\n"
        f"gold = {data / 'gold.jsonl'}\n"
        f"grid = {data / 'grid.jsonl'}\n"
        f"memory = {tmp / 'memory.bin'}\n",
        encoding="utf-8",
    )
    for state, memory in (("cold", "memory.bin"), ("warm", "memory-warm.bin")):
        run = run_pinned(tmp, state, "build-memory", "--output", str(tmp / memory))
        (tmp / f"build-{state}.out").write_text(run.out, encoding="utf-8")
    return tmp


def test_memory_pin(demo):
    for state, memory in (("cold", "memory.bin"), ("warm", "memory-warm.bin")):
        assert sha256(demo / memory) == PINS["memory"], state
        printed = (demo / f"build-{state}.out").read_text(encoding="utf-8").splitlines()
        assert f"sha256: {PINS['memory']}" in printed, state


def test_memory_pin_from_a_whitespace_mangled_ontology(demo, tmp_path):
    # every space in a name or description is a mixed whitespace run, the
    # same run sits at both ends, ids are untouched, and the file has
    # another name: the memory does not depend on it
    run = " \t\u00a0\r\n\u3000  \u2029\x0b"
    spaced = tmp_path / "spaced.jsonl"
    with open(DATA / "ontology.jsonl", encoding="utf-8") as src, \
            open(spaced, "w", encoding="utf-8") as out:
        for line in src:
            obj = json.loads(line)
            for key in ("name", "description"):
                if key in obj:
                    obj[key] = run + obj[key].replace(" ", run) + run
            out.write(json.dumps(obj) + "\n")
    assert spaced.read_bytes() != (DATA / "ontology.jsonl").read_bytes()
    built = run_cli(demo, "build-memory", "--ontology", str(spaced),
                    "--output", str(tmp_path / "spaced.bin"))
    assert (built.code, built.err) == (0, "")
    assert sha256(tmp_path / "spaced.bin") == PINS["memory"]
    assert f"sha256: {PINS['memory']}" in built.out.splitlines()


def test_retrieve_pin(demo):
    # retrieve reads no ontology: its cold and warm runs are on the two memories
    for memory in ("memory.bin", "memory-warm.bin"):
        output = demo / f"retrievals-{memory}.jsonl"
        run = run_cli(demo, "retrieve", "--memory", str(demo / memory), "--output", str(output))
        assert (run.code, run.err) == (0, "")
        assert sha256(output) == PINS["retrieve"], memory


def test_module_entry_point_on_one_blas_thread(demo):
    # one BLAS thread sums the float32 scores in another order, and the
    # variable must be set before numpy loads, so this needs a process
    output = demo / "retrievals-1.jsonl"
    src = str(Path(conceptlinker.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "conceptlinker.cli", "retrieve",
         "--config", str(demo / "run.ini"), "--output", str(output)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert sha256(output) == PINS["retrieve"]


def test_link_pin_at_any_concurrency(demo):
    for concurrency in ("1", "4"):
        for state in ("cold", "warm"):
            output = demo / f"predictions-{concurrency}-{state}.jsonl"
            run_pinned(demo, state, "link", "--endpoint", "mock:keyword",
                       "--concurrency", concurrency, "--output", str(output))
            assert sha256(output) == PINS["link"], (concurrency, state)


def test_ablate_pin(demo):
    # a plain run, a recording and its replay with no endpoint write one report
    transcript = str(demo / "ablate-transcript.jsonl")
    for name, endpoint in (("ablation", ["--endpoint", "mock:keyword"]),
                           ("recorded", ["--endpoint", "mock:keyword", "--fixtures", transcript]),
                           ("replayed", ["--fixtures", transcript])):
        for state in ("cold", "warm"):
            output = demo / f"{name}-{state}.json"
            run_pinned(demo, state, "ablate", *endpoint, "--output", str(output))
            assert sha256(output) == PINS["ablate"], (name, state)
