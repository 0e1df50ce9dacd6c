"""Offline benchmark of conceptlinker on seeded synthetic workloads.

    python3 bench/run.py --workload link_batch --seed 1 --seconds 30 --trace 0

Runs one workload from the program's source in ``src/``, checks every
output, and prints a summary followed by one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run alternates untraced
and traced passes and reports per-layer ones. A full record, with the
environment, goes to ``bench/out/``; traced runs also write their spans
there. README.md beside this file explains each metric and workload.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "conceptlinker" / "__init__.py").is_file():
    sys.exit(f"error: program source not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import conceptlinker  # noqa: E402
from conceptlinker import (  # noqa: E402
    LOCAL_PROVIDER_ID,
    GoldPair,
    KeywordMockEndpoint,
    LinkJournal,
    LocalTrigramProvider,
    PromptConfig,
    ProviderSpec,
    SelectionKind,
    build_memory,
    link_queries,
    load_memory,
    parse_grid,
    parse_ontology,
    parse_predictions,
    parse_queries,
    retrieval_digest,
    retrieve_for_queries,
    run_ablation,
    save_memory,
    score_predictions,
    score_retrievals,
    write_predictions,
)

from gen import Corpus, Shape  # noqa: E402
from reference import ReferenceIndex  # noqa: E402
from spans import Tracer, TracedEndpoint, TracedProvider, layer_seconds  # noqa: E402

if not Path(conceptlinker.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: imported conceptlinker from {conceptlinker.__file__}, not from {SRC}")

# what the CLI uses by default: a 256-dim local provider, k=10, the
# ontology file's stem as its tag, and the default prompt configuration
SPEC = ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d256-s0", 256)
K = 10
TAG = "ontology"
CONCURRENCY = max(1, min(2, os.cpu_count() or 1))

# the four arms of demos/data/grid.jsonl, then a one-shot arm; the first
# is the default configuration, whose accuracy the benchmark reports
GRID = [
    {"label": "both contexts"},
    {"label": "no candidate context", "include_candidate_context": False},
    {"label": "no source context", "include_source_context": False},
    {"label": "names only", "include_source_context": False,
     "include_candidate_context": False},
    {"label": "one-shot", "one_shot": {
        "query": "marrow failure",
        "options": "0: aplastic anemia | failure of the bone marrow to make blood cells\n"
                   "1: marrow edema | fluid within the bone marrow",
        "answer": "option 0",
    }},
]


@dataclass(frozen=True)
class Workload:
    shape: Shape
    pool: int  # queries per pass; the quality metrics score the first pass
    batch: int  # queries per simulated command run
    setups: int  # set-ups per run; setup_s is their median
    ablate: bool = False  # each batch is ranked under every GRID arm


# README.md gives the reason for each workload
WORKLOADS = {
    "link_batch": Workload(
        Shape(20_000, described=0.6, homonyms=0.05, desc_words=(8, 20),
              context_share=0.6, context_filler=(2, 5), vocabulary=6000),
        pool=192, batch=32, setups=5,
    ),
    "ablate_grid": Workload(
        Shape(1_000, described=0.9, homonyms=0.05, desc_words=(40, 120),
              context_share=0.7, context_filler=(15, 40), vocabulary=3000),
        pool=1024, batch=32, setups=9, ablate=True,
    ),
}


@dataclass
class Batch:
    queries_path: Path
    predictions: Path
    gold: list[GoldPair]
    texts: list[str]  # the text each query embeds, for the reference

    @property
    def journal(self) -> Path:
        return Path(str(self.predictions) + ".details.jsonl")

    @property
    def gold_map(self) -> dict[str, str]:
        return {p.source_id: p.target_id for p in self.gold}


@dataclass
class Tally:
    """Linkings attempted and failed over a run, with the first reasons for failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def write_inputs(work: Path, corpus: Corpus, workload: Workload) -> tuple[Path, list[Batch]]:
    ontology = work / "ontology.jsonl"
    _write_jsonl(ontology, (
        {"id": c.id, "name": c.name, **({"description": c.description} if c.description else {})}
        for c in corpus.concepts
    ))
    if workload.ablate:
        _write_jsonl(work / "grid.jsonl", GRID)
    batches = []
    for b in range(workload.pool // workload.batch):
        queries = corpus.queries(workload.batch)
        path = work / f"queries-{b:03d}.jsonl"
        _write_jsonl(path, (
            {"id": q.id, "mention": q.mention, **({"context": q.context} if q.context else {})}
            for q in queries
        ))
        batches.append(Batch(
            path, work / f"predictions-{b:03d}.tsv",
            [GoldPair(q.id, q.gold) for q in queries],
            [f"{q.mention}: {q.context}" if q.context else q.mention for q in queries],
        ))
    return ontology, batches


@dataclass
class Step:
    """What one batch produced: slates, and per arm results and report."""

    queries: list
    slates: list
    results: list  # one list of LinkResult per arm
    reports: list  # one MetricsReport per arm
    digest: str | None = None
    rows: list | None = None  # predictions read back (link runs)


class Bench:
    """The program objects one workload's commands share, and its spans when traced."""

    def __init__(self, workload: Workload, work: Path, tracer: Tracer | None) -> None:
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.provider = LocalTrigramProvider(SPEC)
        self.endpoint = KeywordMockEndpoint()
        self.arms = None
        self.ontology = None
        self.memory = None
        self.memory_path = work / "memory.bin"

    def span(self, name: str, traced: bool = True):
        if traced and self.tracer is not None:
            return self.tracer.span(name)
        return nullcontext()

    def _clients(self, traced: bool):
        """The provider and endpoint, behind tracing proxies when traced."""
        if traced and self.tracer is not None:
            return (TracedProvider(self.provider, self.tracer),
                    TracedEndpoint(self.endpoint, self.tracer))
        return self.provider, self.endpoint

    def prepare(self, ontology_path: Path) -> None:
        """What ``build-memory`` does before a ``link`` or ``ablate`` run."""
        provider, _ = self._clients(True)
        with self.span("bench.prep"):
            with self.span("ontology.parse"):
                ontology = parse_ontology(ontology_path, TAG)
            with self.span("memory.build"):
                built = build_memory(ontology, provider)
            with self.span("memory.save"):
                save_memory(built, self.memory_path)

    def setup(self, ontology_path: Path) -> float:
        """Input files to an ontology and memory ready to query; seconds taken."""
        self.ontology = self.memory = None
        gc.collect()  # each set-up starts from the same heap, not the last one's garbage
        started = time.perf_counter()
        with self.span("bench.setup"):
            with self.span("ontology.parse"):
                self.ontology = parse_ontology(ontology_path, TAG)
            with self.span("memory.load"):
                self.memory = load_memory(
                    self.memory_path, expected_provider=SPEC.fingerprint, strict=False
                )
        return time.perf_counter() - started

    def step(self, batch: Batch, traced: bool) -> Step:
        """One batch through the calls ``link`` then ``evaluate`` make, or ``ablate``'s."""
        provider, endpoint = self._clients(traced)
        with self.span("ontology.parse_queries", traced):
            queries = parse_queries(batch.queries_path)
        with self.span("memory.retrieve", traced):
            slates = retrieve_for_queries(self.memory, queries, provider, K)
        if self.workload.ablate:
            with self.span("evaluation.score", traced):
                digest = retrieval_digest(slates)
            results, reports = [], []
            for arm in self.arms:
                with self.span("pipeline.link", traced):
                    results.append(link_queries(
                        queries, slates, self.ontology, arm.config, endpoint,
                        concurrency=CONCURRENCY,
                    ))
                with self.span("evaluation.score", traced):
                    reports.append(score_predictions(results[-1], batch.gold))
            return Step(queries, slates, results, reports, digest=digest)
        with self.span("pipeline.link", traced):
            journal = LinkJournal(batch.journal)
            results = link_queries(
                queries, slates, self.ontology, PromptConfig(), endpoint,
                concurrency=CONCURRENCY, journal=journal,
            )
        with self.span("evaluation.write", traced):
            write_predictions(batch.predictions, results, slates)
        with self.span("evaluation.score", traced):
            rows = parse_predictions(batch.predictions)
            report = score_predictions(rows, batch.gold)
        return Step(queries, slates, [results], [report], rows=rows)


def signature(step: Step) -> tuple:
    slates = tuple(tuple((c.concept_id, c.score) for c in slate) for slate in step.slates)
    picks = tuple(
        tuple((r.query_id, r.selection.kind, r.resolved) for r in results)
        for results in step.results
    )
    return slates, picks


def check_step(step: Step, batch: Batch, tally: Tally) -> None:
    """Per-batch output checks that need no reference."""
    ids = [g.source_id for g in batch.gold]
    if [q.id for q in step.queries] != ids:
        tally.fail(len(ids) * len(step.results), f"{batch.queries_path.name}: query ids differ")
        return
    for arm, results in enumerate(step.results):
        if [r.query_id for r in results] != ids:
            tally.fail(len(ids), f"{batch.queries_path.name} arm {arm}: result ids differ")
            continue
        for result, slate in zip(results, step.slates):
            kind = result.selection.kind
            bad = None
            if not isinstance(kind, SelectionKind):
                bad = f"unknown outcome kind {kind!r}"
            elif kind in (SelectionKind.PARSE_FAILURE, SelectionKind.TRANSPORT_ERROR):
                bad = f"outcome {kind.value}"
            elif kind is SelectionKind.OPTION and (
                result.selection.index is None
                or not 0 <= result.selection.index < len(slate)
                or slate[result.selection.index].concept_id != result.resolved
            ):
                bad = "chosen option does not match its slate"
            if bad:
                tally.fail(1, f"{result.query_id} arm {arm}: {bad}")
    if step.rows is not None:
        read_back = [(row.query_id, row.resolved) for row in step.rows]
        if read_back != [(r.query_id, r.resolved) for r in step.results[0]]:
            tally.fail(len(ids), f"{batch.predictions.name}: predictions read back differ")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Steady:
    """What the steady phase measured and kept for the checks."""

    first: list[Step] = field(default_factory=list)  # pass 0, scored for quality
    rates: list[float] = field(default_factory=list)  # linkings per second, untraced batches
    pass_seconds: dict = field(default_factory=lambda: {False: [], True: []})
    journal_rows: int = 0  # journal rows and bytes written in pass 0
    journal_bytes: int = 0
    passes: int = 0


def steady(bench: Bench, batches: list[Batch], arms: int, seconds: float,
           traced: bool, tally: Tally) -> Steady:
    """Passes over the query pool until ``seconds`` have passed and pass 0 is whole.

    Only the calls into the program are timed; each batch's outputs are
    checked between batches. A traced run alternates untraced and traced
    passes, whole ones, so its overhead is measured on the same inputs.
    """
    out = Steady()
    signatures = []
    every = 2 if traced else 1
    gc.collect()
    started = time.perf_counter()
    while True:
        traced_pass = out.passes % 2 == 1 if traced else False
        elapsed = 0.0
        with bench.span("bench.pass", traced_pass):
            for b, batch in enumerate(batches):
                for stale in (batch.predictions, batch.journal):
                    stale.unlink(missing_ok=True)
                t0 = time.perf_counter()
                with bench.span("bench.batch", traced_pass):
                    step = bench.step(batch, traced_pass)
                dt = time.perf_counter() - t0
                elapsed += dt
                linkings = len(batch.gold) * arms
                if not traced_pass:
                    out.rates.append(linkings / dt)
                tally.attempted += linkings
                check_step(step, batch, tally)
                if out.passes == 0:
                    out.first.append(step)
                    signatures.append(signature(step))
                    if batch.journal.exists():
                        with open(batch.journal, encoding="utf-8") as handle:
                            out.journal_rows += sum(1 for _ in handle)
                        out.journal_bytes += batch.journal.stat().st_size
                elif signature(step) != signatures[b]:
                    tally.fail(linkings, f"pass {out.passes} batch {b}: outputs differ from pass 0")
                # once pass 0 is whole, an untraced run may stop after any batch
                if not traced and out.passes and time.perf_counter() - started >= seconds:
                    break
        out.pass_seconds[traced_pass].append(elapsed)
        out.passes += 1
        if time.perf_counter() - started >= seconds and out.passes % every == 0:
            return out


def check_outputs(bench: Bench, corpus: Corpus, batches: list[Batch], first: list[Step],
                  arms: int, tally: Tally) -> None:
    """Checks against the reference and the memory file, outside every timing."""
    entries = []
    for c in corpus.concepts:
        entries.append((c.id, c.name))
        if c.description:
            entries.append((c.id, f"{c.name}: {c.description}"))
    reference = ReferenceIndex(entries, SPEC.dim, SPEC.seed)
    best = iter(reference.best_scores([t for batch in batches for t in batch.texts]))
    for step in first:
        for query, slate in zip(step.queries, step.slates):
            why = reference.check_slate(next(best), [(c.concept_id, c.score) for c in slate], K)
            if why:
                tally.fail(arms, f"{query.id}: {why}")

    described = sum(1 for c in corpus.concepts if c.description)
    if len(bench.memory) != len(corpus.concepts) + described:
        tally.fail(tally.attempted, f"memory holds {len(bench.memory)} entries, "
                                    f"expected {len(corpus.concepts)}+{described}")
    # save is byte-deterministic, so a faithful load saves to the same bytes
    roundtrip = bench.work / "roundtrip.bin"
    save_memory(bench.memory, roundtrip)
    if _sha256(roundtrip) != _sha256(bench.memory_path):
        tally.fail(tally.attempted, "loaded memory differs from the built one")

    if bench.workload.ablate:
        rows = run_ablation(
            parse_queries(batches[0].queries_path), batches[0].gold, bench.ontology,
            bench.memory, bench.provider, bench.endpoint, bench.arms,
            k=K, concurrency=CONCURRENCY,
        )
        got = [(r.report.to_dict() if r.report else None, r.retrieval_digest, r.error)
               for r in rows]
        if got != [(r.to_dict(), first[0].digest, None) for r in first[0].reports]:
            tally.fail(len(batches[0].gold) * arms, "run_ablation disagrees with its calls")


def run(workload: Workload, seed: int, seconds: float, tracer: Tracer | None,
        work: Path) -> tuple[Tally, dict[str, tuple[float, str]], dict]:
    """One workload end to end; returns the tally, the metrics and extra record fields."""
    bench = Bench(workload, work, tracer)
    corpus = Corpus(seed, workload.shape)
    ontology_path, batches = write_inputs(work, corpus, workload)
    if workload.ablate:
        bench.arms = parse_grid(work / "grid.jsonl")
    arms = len(bench.arms) if workload.ablate else 1

    bench.prepare(ontology_path)
    early = (workload.setups + 1) // 2
    setup_times = [bench.setup(ontology_path) for _ in range(early)]
    tally = Tally()
    phase = steady(bench, batches, arms, seconds, tracer is not None, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    check_outputs(bench, corpus, batches, phase.first, arms, tally)
    # the machine's speed drifts, so the other set-ups wait for the end of the run
    setup_times += [bench.setup(ontology_path) for _ in range(workload.setups - early)]

    n_pool = sum(len(b.gold) for b in batches)
    hits = {1: 0, 10: 0}
    correct = 0
    outcomes = {kind: 0 for kind in SelectionKind}
    for step, batch in zip(phase.first, batches):
        ranked = {q.id: [c.concept_id for c in s] for q, s in zip(step.queries, step.slates)}
        for k, share in score_retrievals(ranked, batch.gold_map, [1, 10]).hits_at.items():
            hits[k] += round(share * len(batch.gold))
        correct += step.reports[0].n_correct
        for results in step.results:
            for r in results:
                outcomes[r.selection.kind] += 1

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "queries_per_s": (statistics.median(phase.rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "memory_file_mb": (bench.memory_path.stat().st_size / 1e6, "MB"),
            "accuracy": (correct / n_pool, "ratio"),
            "hits_at_1": (hits[1] / n_pool, "ratio"),
            "hits_at_10": (hits[10] / n_pool, "ratio"),
        }
        return tally, metrics, {"setup_times": setup_times, "batch_rates": phase.rates,
                                "passes": phase.passes}

    asked = sum(1 for step in phase.first for s in step.slates if s) * arms
    metrics = per_layer_metrics(tracer.spans, phase, n_pool, asked)
    metrics.update({
        "ontology.concepts": (len(corpus.concepts), "count"),
        "ontology.described": (sum(1 for c in corpus.concepts if c.description), "count"),
        "memory.file_bytes": (bench.memory_path.stat().st_size, "B"),
        "memory.entries": (len(bench.memory), "count"),
        "ranker.outcome.option": (outcomes[SelectionKind.OPTION], "count"),
        "ranker.outcome.none": (outcomes[SelectionKind.NONE_OF_THE_ABOVE], "count"),
        "ranker.outcome.parse_failure": (outcomes[SelectionKind.PARSE_FAILURE], "count"),
        "ranker.outcome.transport_error": (outcomes[SelectionKind.TRANSPORT_ERROR], "count"),
    })
    return tally, metrics, {"passes": phase.passes}


def per_layer_metrics(spans: list, phase: Steady, n_pool: int, asked: int) -> dict:
    """Per-layer times and counts from the spans of a traced run.

    Set-up layers are reported per call; steady-phase layers per traced
    pass over the query pool.
    """
    names = {s.id: s.name for s in spans}
    parents = {s.id: s.parent for s in spans}

    def in_pass(s) -> bool:
        parent = s.parent
        while parent is not None:
            if names[parent] == "bench.pass":
                return True
            parent = parents[parent]
        return False

    layers = layer_seconds(spans)
    count: dict[str, int] = {}
    for s in spans:
        count[s.name] = count.get(s.name, 0) + 1
    passes = count["bench.pass"]

    def per_call(name: str, parent: str | None = None) -> float:
        """Seconds per call of ``name``, or under each call of ``parent``."""
        total = sum(v for (p, n), v in layers.items() if n == name and parent in (None, p))
        return total / count.get(parent or name, 1)

    def per_pass(parent: str, name: str) -> float:
        return layers.get((parent, name), 0.0) / passes

    completes = [s for s in spans if s.name == "llm.complete" and in_pass(s)]
    embeds = [s for s in spans if s.name == "embedding.embed" and in_pass(s)]
    latencies_us = [s.seconds * 1e6 for s in completes]
    retrieve_self = per_pass("bench.batch", "memory.retrieve")
    batch_wall = sum(s.seconds for s in spans if s.name == "bench.batch")
    seconds = phase.pass_seconds
    return {
        "ontology.parse_s": (per_call("ontology.parse"), "s"),
        "ontology.parse_queries_s": (per_pass("bench.batch", "ontology.parse_queries"), "s"),
        "embedding.embed_s": (per_pass("memory.retrieve", "embedding.embed"), "s"),
        "embedding.build_embed_s": (per_call("embedding.embed", "memory.build"), "s"),
        "embedding.texts": (sum(s.attrs["texts"] for s in embeds) / passes, "count"),
        "embedding.calls": (len(embeds) / passes, "count"),
        "memory.build_self_s": (per_call("memory.build"), "s"),
        "memory.save_s": (per_call("memory.save"), "s"),
        "memory.load_s": (per_call("memory.load"), "s"),
        "memory.retrieve_self_s": (retrieve_self, "s"),
        "memory.retrieve_ms_per_query": (retrieve_self / n_pool * 1e3, "ms"),
        "pipeline.link_self_s": (per_pass("bench.batch", "pipeline.link"), "s"),
        "pipeline.journal_rows": (phase.journal_rows, "count"),
        "pipeline.journal_bytes": (phase.journal_bytes, "B"),
        "ranker.reasks": (len(completes) / passes - asked, "count"),
        "llm.complete_s": (per_pass("pipeline.link", "llm.complete"), "s"),
        "llm.calls": (len(completes) / passes, "count"),
        "llm.complete_p50_us": (float(np.percentile(latencies_us, 50)), "us"),
        "llm.complete_p99_us": (float(np.percentile(latencies_us, 99)), "us"),
        "llm.prompt_chars_mean": (
            statistics.fmean(s.attrs["prompt_chars"] for s in completes), "chars"),
        "evaluation.write_s": (per_pass("bench.batch", "evaluation.write"), "s"),
        "evaluation.score_s": (per_pass("bench.batch", "evaluation.score"), "s"),
        "trace.overhead_share": (
            statistics.fmean(seconds[True]) / statistics.fmean(seconds[False]) - 1, "ratio"),
        "trace.unattributed_share": (per_pass("bench.pass", "bench.batch") * passes
                                     / batch_wall, "ratio"),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = sorted({line.split()[-1] for line in handle
                                if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for library in libraries:
        try:
            lib = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "concurrency": CONCURRENCY,
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        tally, metrics, extra = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    failed = min(tally.failed, tally.attempted)
    ok = failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "correct": ok,
        "attempted": tally.attempted, "failed": failed, "problems": tally.problems,
        **extra,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
