"""The CLI's output pins on ``demos/data``, run in process.

Each pin is the sha256 of a file a command writes from the demo inputs.
The workflow's ``CLI smoke`` step checks the same pins with the same
commands; the one-BLAS-thread ``retrieve`` check stays there, because
``OPENBLAS_NUM_THREADS`` must be set before numpy loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
from pathlib import Path

import pytest

from conceptlinker.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

PINS = {
    "memory": "30fdc245ccad51b8f995aa560a3a81d2f0ee869cb15873f0450eb67848412108",
    "retrieve": "4085e05dbcf613a78c675dc1164d98965a823a55814e901670d32a3f2ba74e5e",
    "link": "d5600f3da78ce0b520a4c677696fbcb3317497dff965a156c3985a59d3993941",
    "ablate": "9132cae55faa362996611f5b5bbc3f78736e49835a0744b992172feed480ecd7",
}


def run_cli(tmp: Path, *argv: str) -> tuple[int, str, str]:
    """``main(argv)`` with ``tmp``'s ``run.ini``: its exit code, stdout, and stderr with logging."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(tmp / "run.ini")])
    finally:
        root.removeHandler(handler)
    return code, out.getvalue(), err.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    """A directory holding the ``run.ini`` of the ``CLI smoke`` step and its built memory."""
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
    code, out, err = run_cli(tmp, "build-memory")
    assert (code, err) == (0, "")
    (tmp / "build.out").write_text(out, encoding="utf-8")
    return tmp


def test_memory_pin(demo):
    assert sha256(demo / "memory.bin") == PINS["memory"]
    printed = (demo / "build.out").read_text(encoding="utf-8").splitlines()
    assert f"sha256: {PINS['memory']}" in printed


def test_memory_pin_from_a_whitespace_mangled_ontology(demo, tmp_path):
    # the CLI smoke step's copy: every space in a name or description is a
    # mixed whitespace run, the same run sits at both ends, ids are untouched
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
    code, out, err = run_cli(demo, "build-memory", "--ontology", str(spaced), "--tag", "ontology",
                             "--output", str(tmp_path / "spaced.bin"))
    assert (code, err) == (0, "")
    assert sha256(tmp_path / "spaced.bin") == PINS["memory"]
    assert f"sha256: {PINS['memory']}" in out.splitlines()


def test_retrieve_pin(demo):
    code, _, err = run_cli(demo, "retrieve", "--output", str(demo / "retrievals.jsonl"))
    assert (code, err) == (0, "")
    assert sha256(demo / "retrievals.jsonl") == PINS["retrieve"]


def test_link_pin_at_any_concurrency(demo):
    for concurrency in ("1", "4"):
        output = demo / f"predictions-{concurrency}.jsonl"
        code, _, err = run_cli(demo, "link", "--endpoint", "mock:keyword",
                               "--concurrency", concurrency, "--output", str(output))
        assert (code, err) == (0, "")
        assert sha256(output) == PINS["link"]


def test_ablate_pin(demo):
    code, _, err = run_cli(demo, "ablate", "--endpoint", "mock:keyword",
                           "--output", str(demo / "ablation.json"))
    assert (code, err) == (0, "")
    assert sha256(demo / "ablation.json") == PINS["ablate"]


def test_workflow_carries_every_pin():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    for command, pin in PINS.items():
        assert pin in workflow, command
