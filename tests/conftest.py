"""Shared fixtures: synthetic corpora, providers, and acceptance reporting."""

from __future__ import annotations

import contextlib
import io
import json
import logging
import random
import string
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conceptlinker import (
    LOCAL_PROVIDER_ID,
    LocalTrigramProvider,
    Memory,
    Ontology,
    ProviderSpec,
    Query,
    Variant,
)
from conceptlinker.cli import main

MASTER_SEED = 20260823


@pytest.fixture
def rng() -> random.Random:
    return random.Random(MASTER_SEED)


def make_word(rng: random.Random, low: int = 4, high: int = 9) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(low, high)))


def make_sentence(rng: random.Random, n_words: int) -> str:
    return " ".join(make_word(rng) for _ in range(n_words))


class Concept(NamedTuple):
    """One concept as a test writes it: a row of an Ontology's three columns."""

    id: str
    name: str
    description: str | None = None


def concepts_of(ontology: Ontology) -> list[Concept]:
    """The rows of ``ontology``'s columns, in order."""
    return list(map(Concept, ontology.ids, ontology.names, ontology.descriptions))


def synthetic_ontology(
    rng: random.Random,
    n_concepts: int,
    described_fraction: float = 0.6,
    tag: str = "synthetic",
) -> Ontology:
    """Random distinct two-word names; a fraction carry descriptions."""
    concepts = []
    names: set[str] = set()
    for i in range(n_concepts):
        while True:
            name = f"{make_word(rng)} {make_word(rng)}"
            if name not in names:
                names.add(name)
                break
        description = (
            make_sentence(rng, rng.randint(6, 14))
            if rng.random() < described_fraction
            else None
        )
        concepts.append(Concept(id=f"C{i:04d}", name=name, description=description))
    return ontology_from(tag, concepts)


def ontology_from(tag: str, concepts) -> Ontology:
    """An Ontology holding the ids, names and descriptions of ``concepts``, in order."""
    concepts = list(concepts)
    return Ontology(tag, [c.id for c in concepts], [c.name for c in concepts],
                    [c.description for c in concepts])


def perturb(rng: random.Random, text: str) -> str:
    """Light noise: drop a character or swap two adjacent ones."""
    if len(text) < 4:
        return text
    i = rng.randrange(1, len(text) - 2)
    if rng.random() < 0.5:
        return text[:i] + text[i + 1 :]
    return text[:i] + text[i + 1] + text[i] + text[i + 2 :]


def queries_for(
    ontology: Ontology,
    rng: random.Random,
    n_queries: int,
    *,
    with_context: bool = True,
    noisy: bool = False,
) -> tuple[list[Query], dict[str, str]]:
    """Queries drawn from concept names, plus the gold map they imply."""
    concepts = concepts_of(ontology)
    queries: list[Query] = []
    gold: dict[str, str] = {}
    for i in range(n_queries):
        concept = rng.choice(concepts)
        mention = perturb(rng, concept.name) if noisy else concept.name
        context = concept.description if with_context and concept.description else None
        query_id = f"q{i:04d}"
        queries.append(Query(id=query_id, mention=mention, context=context))
        gold[query_id] = concept.id
    return queries, gold


def write_jsonl(path, records) -> None:
    """Write each record as one JSON line; a None field is written as null."""
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def write_ontology(path, ontology: Ontology) -> None:
    """An ontology file that parse_ontology reads back as ``ontology``."""
    write_jsonl(path, ({"id": cid, "name": name, "description": description}
                       for cid, name, description
                       in zip(ontology.ids, ontology.names, ontology.descriptions)))


def write_queries(path, queries) -> None:
    """A query file that parse_queries reads back as ``queries``."""
    write_jsonl(path, ({"id": q.id, "mention": q.mention, "context": q.context}
                       for q in queries))


def write_gold(path, pairs) -> None:
    """A gold file of (source, target) GoldPairs."""
    write_jsonl(path, ({"source": p.source_id, "target": p.target_id} for p in pairs))


def local_provider(dim: int = 64, seed: int = 0) -> LocalTrigramProvider:
    spec = ProviderSpec(LOCAL_PROVIDER_ID, f"trigram-d{dim}-s{seed}", dim, seed=seed)
    return LocalTrigramProvider(spec)


def memory_from_rows(rows, dim: int) -> Memory:
    """A Memory from (concept id, Variant, vector) rows in entry order.

    Each NAME_ONLY row starts a concept, and a NAME_WITH_CONTEXT row must
    follow its own concept's NAME_ONLY row.
    """
    ids: list[str] = []
    has_context: list[bool] = []
    for concept_id, variant, _ in rows:
        if variant is Variant.NAME_ONLY:
            ids.append(concept_id)
            has_context.append(False)
        else:
            assert ids[-1:] == [concept_id] and not has_context[-1], "a stray context row"
            has_context[-1] = True
    vectors = np.stack([vector for _, _, vector in rows])
    return Memory(ids, has_context, vectors, dim, ("local-trigram", "m"))


def memory_rows(memory: Memory) -> list[tuple[str, Variant, np.ndarray]]:
    """(concept id, Variant, vector) for each row of a memory's columns."""
    rows = iter(memory.vectors)
    return [
        (concept_id, variant, next(rows))
        for concept_id, flag in zip(memory.concept_ids, memory.has_context.tolist())
        for variant in (Variant.NAME_ONLY, Variant.NAME_WITH_CONTEXT)[: 1 + flag]
    ]


# --- the in-process CLI runner ----------------------------------------------

class CliRun(NamedTuple):
    code: int
    out: str
    err: str  # stderr, logging included
    created: set[Path]  # the files the run left under its root that were not there before


def run_cli(root: Path, *argv: str) -> CliRun:
    """``cli.main`` on ``argv`` with ``root``'s ``run.ini``, in process.

    An argparse exit is returned as the exit code it carries.
    """
    def files() -> set[Path]:
        return {path for path in root.rglob("*") if path.is_file()}

    before = files()
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    logger = logging.getLogger()
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(root / "run.ini")])
    except SystemExit as exc:
        code = exc.code
    finally:
        logger.removeHandler(handler)
    return CliRun(code, out.getvalue(), err.getvalue(), files() - before)


# --- acceptance criteria reporting ------------------------------------------

_config = None


def pytest_configure(config):
    # the terminal reporter registers after conftest hooks run, so it has
    # to be looked up lazily at report time
    global _config
    _config = config


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid or _config is None:
        return
    terminal = _config.pluginmanager.get_plugin("terminalreporter")
    if terminal is None:
        return
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    terminal.write_line(f"ACCEPTANCE {status}: {report.nodeid.split('::')[-1]}")
