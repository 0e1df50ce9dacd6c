"""Scoring and reporting: accuracy, precision/recall/F1, hits@k, ablation.

Each scorer is one pass over the distinct gold queries. A none-of-the-above,
parse failure or transport error is incorrect, so accuracy equals recall;
precision counts only queries where a concept id was predicted. Raw counts
ride along in every report so alternative denominators can be recomputed.
All metric values are emitted at four decimal places.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import (
    EmptyFile,
    LinkerError,
    MalformedRecord,
    MissingPrediction,
    MissingRetrieval,
)
from .fileio import atomic_text, file_reader, read_records, record_field
from .memory import Candidate, Memory
from .ontology import Ontology, Query
from .pipeline import link_queries, retrieve_for_queries
from .ranker import LinkResult, OneShotExample, PromptConfig, SelectionKind

logger = logging.getLogger(__name__)

DEFAULT_HITS_KS = (1, 5, 10)

# gold targets holding several ids joined by | are out of scope and skipped
COMPOSITE_SEP = "|"


@dataclass(frozen=True, slots=True)
class GoldPair:
    source_id: str
    target_id: str


@dataclass(frozen=True, slots=True)
class Prediction:
    """A prediction reloaded from a file; enough of a LinkResult to score."""

    query_id: str
    resolved: str | None


# scoring only reads .query_id and .resolved, present on both
Linked = LinkResult | Prediction


@dataclass(frozen=True)
class MetricsReport:
    """One scored run: whichever metrics apply, plus the raw counts."""

    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    hits_at: dict[int, float] = field(default_factory=dict)
    n_queries: int = 0
    n_predicted: int = 0
    n_correct: int = 0
    n_gold: int = 0

    def __post_init__(self) -> None:
        ks = list(self.hits_at)
        if ks != sorted(ks):
            raise ValueError("hits_at keys must be ascending")
        values = list(self.hits_at.values())
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("hits_at must be non-decreasing in k")

    def to_dict(self) -> dict:
        def fmt(x: float | None) -> float | None:
            return None if x is None else round(x, 4)

        return {
            "accuracy": fmt(self.accuracy),
            "precision": fmt(self.precision),
            "recall": fmt(self.recall),
            "f1": fmt(self.f1),
            "hits_at": {str(k): fmt(v) for k, v in self.hits_at.items()},
            "counts": {
                "n_queries": self.n_queries,
                "n_predicted": self.n_predicted,
                "n_correct": self.n_correct,
                "n_gold": self.n_gold,
            },
        }


def f1_from(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both sides are 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def check_ks(ks: list[int]) -> None:
    """Raise ValueError unless the hits@k cutoffs are non-empty, positive and ascending."""
    if not ks or ks != sorted(ks) or ks[0] < 1:
        raise ValueError(f"ks must be positive and ascending, got {ks}")


def score_predictions(results: Sequence[Linked], gold: list[GoldPair]) -> MetricsReport:
    """Accuracy, precision over resolved predictions, recall over gold, and F1.

    One pass over the distinct gold queries counts the correct ones, for
    accuracy and recall alike; every gold query needs a result. An agreeing
    duplicate gold pair counts once; a query with two gold targets or two
    results raises ValueError.
    """
    targets: dict[str, str] = {}
    for pair in gold:
        if targets.setdefault(pair.source_id, pair.target_id) != pair.target_id:
            raise ValueError(f"gold maps query {pair.source_id!r} to two targets")
    if not targets:
        raise ValueError("gold is empty")
    picks: dict[str, str | None] = {}
    resolved = 0
    for result in results:
        if result.query_id in picks:
            raise ValueError(f"results hold query {result.query_id!r} twice")
        picks[result.query_id] = result.resolved
        resolved += result.resolved is not None
    correct = 0
    for query_id, target in targets.items():
        if query_id not in picks:
            raise MissingPrediction(query_id)
        correct += picks[query_id] == target
    precision = correct / resolved if resolved else 0.0
    recall = correct / len(targets)
    return MetricsReport(accuracy=recall, precision=precision, recall=recall,
                         f1=f1_from(precision, recall), n_queries=len(picks),
                         n_predicted=resolved, n_correct=correct, n_gold=len(targets))


def score_retrievals(retrievals: dict[str, list[str]], gold: dict[str, str],
                     ks: list[int] | None = None) -> MetricsReport:
    """Hits@k for each k: the share of gold queries whose gold id is in their top k."""
    ks = list(DEFAULT_HITS_KS) if ks is None else ks
    check_ks(ks)
    if not gold:
        raise ValueError("gold is empty")
    hits = dict.fromkeys(ks, 0)
    for query_id, target in gold.items():
        ranked = retrievals.get(query_id)
        if ranked is None:
            raise MissingRetrieval(query_id)
        for k in ks:
            hits[k] += target in ranked[:k]
    return MetricsReport(hits_at={k: n / len(gold) for k, n in hits.items()},
                         n_queries=len(gold), n_predicted=len(retrievals),
                         n_correct=hits[ks[-1]], n_gold=len(gold))


# --- gold files -------------------------------------------------------------

@file_reader
def parse_gold(path: str | Path) -> list[GoldPair]:
    """Read JSON Lines ``{"source", "target"}`` pairs; both ids must be strings.

    Composite targets (several ids joined by ``|``) and conflicting
    duplicate sources are out of scope: they are skipped with a logged
    count rather than scored.
    """
    pairs: list[GoldPair] = []
    seen: dict[str, str] = {}
    skipped = 0
    for lineno, record in read_records(path):
        source = record_field(record, "source", lineno).strip()
        target = record_field(record, "target", lineno).strip()
        if not source or not target:
            raise MalformedRecord(lineno, "empty source or target")
        if COMPOSITE_SEP in target:
            skipped += 1
            continue
        if source in seen:
            if seen[source] != target:
                skipped += 1
            continue
        seen[source] = target
        pairs.append(GoldPair(source, target))
    if skipped:
        logger.warning("skipped %d composite or conflicting gold records", skipped)
    return pairs


# --- prediction and retrieval files -----------------------------------------

def write_predictions(
    path: str | Path,
    results: Sequence[LinkResult],
    candidates: Sequence[list[Candidate]],
) -> None:
    """Write one JSON Lines row per query: ``{"query_id", "resolved", "score", "kind"}``.

    ``resolved`` is null when nothing was chosen, ``score`` is the retrieval
    score of the chosen candidate (the top one when nothing was chosen, 0
    for an empty slate), and ``kind`` is the selection kind. ``results`` and
    ``candidates`` must be of one length.
    """
    lines = []
    for result, slate in zip(results, candidates, strict=True):
        score = slate[result.selection.index or 0].score if slate else 0.0
        lines.append(json.dumps({"query_id": result.query_id, "resolved": result.resolved,
                                 "score": round(score, 6), "kind": result.selection.kind.value}))
    atomic_text(path, "".join(line + "\n" for line in lines))


@file_reader
def parse_predictions(path: str | Path) -> list[Prediction]:
    """Read a predictions file back for scoring, one row per query id."""
    out: dict[str, Prediction] = {}
    for lineno, record in read_records(path):
        query_id = record_field(record, "query_id", lineno)
        resolved = record_field(record, "resolved", lineno, required=False)
        record_field(record, "score", lineno, float)
        kind = record_field(record, "kind", lineno)
        try:
            option = SelectionKind(kind) is SelectionKind.OPTION
        except ValueError as exc:
            raise MalformedRecord(lineno, str(exc)) from None
        if option != (resolved is not None):
            raise MalformedRecord(lineno, f"kind {kind} contradicts resolved {resolved!r}")
        if query_id in out:
            raise MalformedRecord(lineno, f"duplicate query id {query_id!r}")
        out[query_id] = Prediction(query_id, resolved)
    return list(out.values())


def write_retrievals(
    path: str | Path, rows: Sequence[tuple[str, list[Candidate]]]
) -> None:
    """Write ranked candidates per query as JSON Lines, for hits@k scoring."""
    lines = [
        json.dumps(
            {
                "query_id": query_id,
                "candidates": [
                    {"cid": c.concept_id, "score": round(c.score, 6)} for c in slate
                ],
            }
        )
        for query_id, slate in rows
    ]
    atomic_text(path, "".join(line + "\n" for line in lines))


@file_reader
def parse_retrievals(path: str | Path) -> dict[str, list[str]]:
    """Read a retrieval file back to ranked id lists keyed by query id."""
    out: dict[str, list[str]] = {}
    for lineno, record in read_records(path):
        query_id = record_field(record, "query_id", lineno)
        ranked = [record_field(c, "cid", lineno)
                  for c in record_field(record, "candidates", lineno, list)]
        if query_id in out:
            raise MalformedRecord(lineno, f"duplicate query id {query_id!r}")
        out[query_id] = ranked
    return out


# --- ablation ---------------------------------------------------------------

@dataclass(frozen=True)
class AblationArm:
    """One grid row: a label plus the prompt configuration it exercises."""

    label: str
    config: PromptConfig


@file_reader
def parse_grid(path: str | Path) -> list[AblationArm]:
    """Read a JSON Lines ablation grid.

    Each row holds an optional string ``label`` (``arm-N``, counting rows
    from 0, when absent) plus prompt-configuration fields
    by their own names, e.g. ``{"label": "no context",
    "include_source_context": false, "include_candidate_context": false}``.
    A ``one_shot`` field takes an object with query, options, and answer.
    """
    arms: list[AblationArm] = []
    for lineno, record in read_records(path):
        label = record_field(record, "label", lineno) if "label" in record else f"arm-{len(arms)}"
        record.pop("label", None)
        one_shot = record.pop("one_shot", None)
        if one_shot is not None:
            for key in ("query", "options", "answer"):
                record_field(one_shot, key, lineno)
            try:
                one_shot = OneShotExample(**one_shot)
            except TypeError as exc:
                raise MalformedRecord(lineno, f"bad one_shot: {exc}") from None
        try:
            config = PromptConfig(one_shot=one_shot, **record)
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(lineno, str(exc)) from None
        arms.append(AblationArm(label, config))
    if not arms:
        raise EmptyFile(str(path))
    return arms


@dataclass(frozen=True)
class AblationRow:
    label: str
    config: PromptConfig
    report: MetricsReport | None
    error: str | None
    retrieval_digest: str

    def to_dict(self) -> dict:
        config = asdict(self.config)
        return {
            "label": self.label,
            "config": config,
            "metrics": self.report.to_dict() if self.report else None,
            "error": self.error,
            "retrieval_digest": self.retrieval_digest,
        }


def retrieval_digest(candidates: list[list[Candidate]]) -> str:
    """Stable fingerprint of a full retrieval pass, for sharing checks.

    The sha256 of the ``json.dumps`` text, keys sorted, of each slate as a
    list of ``{"cid": id, "score": "%.6f"}`` objects, joined here directly:
    a formatted float needs no JSON escape.
    """
    dumps = json.dumps
    blob = "[" + ", ".join(
        "[" + ", ".join(f'{{"cid": {dumps(c.concept_id)}, "score": "{c.score:.6f}"}}'
                        for c in slate) + "]"
        for slate in candidates
    ) + "]"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_ablation(
    queries: list[Query],
    gold: list[GoldPair],
    ontology: Ontology,
    memory: Memory,
    provider,
    endpoint,
    grid: list[AblationArm],
    *,
    k: int,
    concurrency: int = 1,
    token_budget: int | None = None,
) -> list[AblationRow]:
    """Score one prompt configuration per grid entry, sharing retrieval.

    Retrieval runs once; only the prompt stage varies across rows, and
    every prompt fits ``token_budget`` when one is given. A row that fails
    is recorded with its error and the remaining rows still run. Rows come
    back in grid order.
    """
    if not grid:
        raise ValueError("grid is empty")
    candidates = retrieve_for_queries(memory, queries, provider, k)
    digest = retrieval_digest(candidates)

    rows: list[AblationRow] = []
    for arm in grid:
        try:
            results = link_queries(
                queries, candidates, ontology, arm.config, endpoint,
                concurrency=concurrency, token_budget=token_budget,
            )
            report = score_predictions(results, gold)
            rows.append(AblationRow(arm.label, arm.config, report, None, digest))
        except LinkerError as exc:
            logger.warning("ablation row %r failed: %s", arm.label, exc)
            rows.append(AblationRow(arm.label, arm.config, None, str(exc), digest))
    return rows


# --- report files -----------------------------------------------------------

def write_report(path: str | Path, report: dict) -> None:
    """Write a report object as one pretty-printed JSON document."""
    atomic_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def render_report(report: dict) -> str:
    """Aligned text table of the rows in a report object."""
    rows = report.get("rows", [])
    hit_ks: list[str] = sorted(
        {k for row in rows for k in (row.get("metrics") or {}).get("hits_at", {})},
        key=int,
    )
    header = ["row", "acc", "P", "R", "F1"] + [f"hits@{k}" for k in hit_ks] + ["note"]

    def cell(value: float | None) -> str:
        return "-" if value is None else f"{value:.4f}"

    table = [header]
    for row in rows:
        metrics = row.get("metrics") or {}
        hits = metrics.get("hits_at", {})
        table.append(
            [
                row.get("label", "?"),
                cell(metrics.get("accuracy")),
                cell(metrics.get("precision")),
                cell(metrics.get("recall")),
                cell(metrics.get("f1")),
                *[cell(hits.get(k)) for k in hit_ks],
                row.get("error") or "",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)
