"""Tiny-size smoke run of every workload, traced and untraced; no timing bounds.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reference import ReferenceIndex, embed_matrix  # noqa: E402
from spans import Tracer  # noqa: E402

from conceptlinker import local_embed  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(workload: run.Workload) -> run.Workload:
    shape = dataclasses.replace(workload.shape, n_concepts=200)
    return dataclasses.replace(workload, shape=shape, pool=8, batch=4, setups=1)


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_passes_its_checks(name, traced, tmp_path):
    tracer = Tracer() if traced else None
    tally, metrics, _ = run.run(tiny(run.WORKLOADS[name]), 7, 0.0, tracer, tmp_path)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    declared = DECLARED["per_layer" if traced else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_declared_workloads_exist():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(run.WORKLOADS)


def test_reference_embedder_is_bit_identical():
    rng = random.Random(5)
    texts = ["".join(rng.choice("abcxyz :") for _ in range(rng.randint(1, 80))) + "q"
             for _ in range(200)]
    matrix = embed_matrix(texts, 64, seed=3)
    for row, text in zip(matrix, texts):
        assert np.array_equal(row, local_embed(text, 64, 3))


def test_reference_rejects_a_wrong_slate():
    index = ReferenceIndex(
        [("A", "alpha one"), ("A", "alpha one: first"), ("B", "beta two"), ("C", "gamma")],
        dim=64,
    )
    best = index.best_scores(["alpha one"])[0]
    order = sorted(range(3), key=lambda i: -best[i])
    good = [(index.ids[i], float(best[i])) for i in order[:2]]
    assert index.check_slate(best, good, 2) is None
    swapped = [(good[0][0], good[1][1]), (good[1][0], good[0][1])]
    assert index.check_slate(best, swapped, 2) is not None
    missing = [good[0], (index.ids[order[2]], float(best[order[2]]))]
    assert index.check_slate(best, missing, 2) is not None
