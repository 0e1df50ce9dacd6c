"""The CLI's output pins on ``demos/data``.

Each pin is the sha256 of a file a command writes from the demo inputs.
Every CLI check runs in tier-1 and nowhere else: these run ``cli.main`` in
process, and one runs ``python -m conceptlinker.cli`` under
``OPENBLAS_NUM_THREADS=1``, which must be set before numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import os
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


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    """A directory holding a ``run.ini`` of the demo inputs and its built memory."""
    tmp = tmp_path_factory.mktemp("pins")
    (tmp / "run.ini").write_text(
        "[paths]\n"
        f"ontology = {DATA / 'ontology.jsonl'}\n"
        f"queries = {DATA / 'queries.jsonl'}\n"
        f"gold = {DATA / 'gold.jsonl'}\n"
        f"grid = {DATA / 'grid.jsonl'}\n"
        f"memory = {tmp / 'memory.bin'}\n",
        encoding="utf-8",
    )
    run = run_cli(tmp, "build-memory")
    assert (run.code, run.err) == (0, "")
    (tmp / "build.out").write_text(run.out, encoding="utf-8")
    return tmp


def test_memory_pin(demo):
    assert sha256(demo / "memory.bin") == PINS["memory"]
    printed = (demo / "build.out").read_text(encoding="utf-8").splitlines()
    assert f"sha256: {PINS['memory']}" in printed


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
    run = run_cli(demo, "retrieve", "--output", str(demo / "retrievals.jsonl"))
    assert (run.code, run.err) == (0, "")
    assert sha256(demo / "retrievals.jsonl") == PINS["retrieve"]


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
        output = demo / f"predictions-{concurrency}.jsonl"
        run = run_cli(demo, "link", "--endpoint", "mock:keyword",
                      "--concurrency", concurrency, "--output", str(output))
        assert (run.code, run.err) == (0, "")
        assert sha256(output) == PINS["link"]


def test_ablate_pin(demo):
    # a plain run, a recording and its replay with no endpoint write one report
    transcript = str(demo / "ablate-transcript.jsonl")
    for name, endpoint in (("ablation", ["--endpoint", "mock:keyword"]),
                           ("recorded", ["--endpoint", "mock:keyword", "--fixtures", transcript]),
                           ("replayed", ["--fixtures", transcript])):
        output = demo / f"{name}.json"
        run = run_cli(demo, "ablate", *endpoint, "--output", str(output))
        assert (run.code, run.err) == (0, "")
        assert sha256(output) == PINS["ablate"], name
