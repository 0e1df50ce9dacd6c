"""Command-line driver for the full pipeline.

Subcommands: ``build-memory``, ``retrieve``, ``link``, ``evaluate``, and
``ablate``. Every setting can come from an INI config file (``--config``)
or a flag, with flags winning. Secrets never appear in either: the API
key is read from the LINKER_API_KEY environment variable only.

Exit codes: 0 success, 2 bad input or config, 3 external-service failure,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import logging
import math
import sys
import traceback
from collections import Counter
from pathlib import Path

from .embedding import (
    LOCAL_PROVIDER_ID,
    REMOTE_PROVIDER_ID,
    LocalTrigramProvider,
    ProviderSpec,
    RemoteProvider,
    VectorCache,
)
from .errors import ConceptSetMismatch, DimMismatch, LinkerError, ServiceError, ValidationError
from .evaluation import (
    DEFAULT_HITS_KS,
    check_ks,
    parse_gold,
    parse_grid,
    parse_predictions,
    parse_retrievals,
    render_report,
    run_ablation,
    score_predictions,
    score_retrievals,
    write_predictions,
    write_report,
    write_retrievals,
)
from .llm import (
    ExactMatchMockEndpoint,
    HttpCompletionEndpoint,
    KeywordMockEndpoint,
    TranscriptStore,
)
from .memory import build_memory, check_provider, load_memory, save_memory
from .ontology import parse_ontology, parse_queries
from .pipeline import DEFAULT_CONCURRENCY, LinkJournal, link_queries, retrieve_for_queries
from .ranker import PromptConfig, SelectionKind

_MOCK_ENDPOINTS = {
    "mock:exact": ExactMatchMockEndpoint,
    "mock:keyword": KeywordMockEndpoint,
}

# Every setting: name -> (config-file section, key, default, flag help). The
# name is the dest of the flag ``--<name with dashes>``, which a bool default
# makes ``--x/--no-x`` and an int default an integer flag; the four settings
# without help have no flag and are config-file only.
SETTINGS = {
    "ontology": ("paths", "ontology", None, "ontology concepts file (JSON Lines)"),
    "queries": ("paths", "queries", None, "queries file (JSON Lines)"),
    "memory": ("paths", "memory", None, "embedding memory file"),
    "gold": ("paths", "gold", None, "gold pairs file (JSON Lines)"),
    "grid": ("paths", "grid", None, "JSON Lines grid of prompt configurations"),
    "predictions": ("paths", "predictions", None, "predictions file to score"),
    "retrievals": ("paths", "retrievals", None, "retrieval file to score with hits@k"),
    "output": ("paths", "output", None, "output path for this command's artifact"),
    "cache_dir": ("paths", "cache_dir", None, "embedding cache directory"),
    "fixtures": ("paths", "fixtures", None,
                 "transcript file: records with --endpoint, replays without"),
    "provider": ("provider", "kind", "local", "embedding provider kind"),
    "model": ("provider", "model", None, "embedding model id (local: trigram-d<dim>-s<seed>)"),
    "dim": ("provider", "dim", 256, "embedding dimension"),
    "seed": ("provider", "seed", 0, "local embedder seed"),
    "provider_endpoint": ("provider", "endpoint", None, None),
    "provider_timeout": ("provider", "timeout", 30.0, None),
    "endpoint": ("endpoint", "url", None, "completion endpoint URL, mock:exact, or mock:keyword"),
    "completion_model": ("endpoint", "model", "ranker", "completion model id"),
    "token_budget": ("endpoint", "token_budget", None, None),
    "endpoint_timeout": ("endpoint", "timeout", 60.0, None),
    "k": ("run", "k", 10, "candidates to retrieve per query"),
    "ks": ("run", "ks", ",".join(map(str, DEFAULT_HITS_KS)),
           "comma-separated hits@k cutoffs (default 1,5,10)"),
    "concurrency": ("run", "concurrency", DEFAULT_CONCURRENCY, "parallel ranking calls"),
    "strict": ("run", "strict", False, "fail instead of warn on a remote fingerprint mismatch"),
    "source_context": ("prompt", "source_context", True,
                       "include the query's context block in prompts"),
    "candidate_context": ("prompt", "candidate_context", True,
                          "include candidate descriptions in prompts"),
}
# each section's keys that some setting reads; any other key there is refused
_CONFIG_KEYS = {section: {key for other, key, _, _ in SETTINGS.values() if other == section}
                for section, _, _, _ in SETTINGS.values()}

# the flags of one command only; every other flag is every command's
_COMMAND_FLAGS = {"predictions": "evaluate", "retrievals": "evaluate", "ks": "evaluate",
                  "grid": "ablate"}


class UsageError(ValidationError):
    """Bad flag or config-file combination; maps to exit code 2."""


class Settings:
    """One command's settings: the flag if given, else the config file, else the default."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self._config = None
        if args.config is not None:
            if not Path(args.config).exists():
                raise UsageError(f"config path does not exist: {args.config}")
            self._config = configparser.ConfigParser(interpolation=None)
            self._config.read(args.config, encoding="utf-8")
            unread = _unread_keys(self._config)
            if unread:
                raise UsageError(f"config {args.config} has keys no setting reads: "
                                 + ", ".join(unread))

    def get(self, name: str):
        section, key, default, _ = SETTINGS[name]
        value = getattr(self._args, name, None)
        if value is None and self._config is not None:
            value = self._config.get(section, key, fallback=None)
        return default if value is None else value

    def integer(self, name: str) -> int | None:
        value = self.get(name)
        if value is None:
            return None
        try:
            return int(value)
        except (TypeError, ValueError):
            raise UsageError(f"{SETTINGS[name][1]} must be an integer, got {value!r}") from None

    def positive(self, name: str) -> int | None:
        value = self.integer(name)
        if value is not None and value < 1:
            raise UsageError(f"{SETTINGS[name][1]} must be >= 1, got {value}")
        return value

    def positive_float(self, name: str) -> float:
        value = self.get(name)
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not 0 < number < math.inf:
            section, key = SETTINGS[name][:2]
            raise UsageError(f"[{section}] {key} must be a positive number, got {value!r}")
        return number

    def boolean(self, name: str) -> bool:
        value = self.get(name)
        if isinstance(value, bool):
            return value
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[str(value).lower()]
        except KeyError:
            raise UsageError(f"{SETTINGS[name][1]} must be a boolean, got {value!r}") from None

    def input_path(self, name: str) -> Path:
        value = self.get(name)
        if not value:
            raise UsageError(f"missing required {name} path")
        path = Path(value)
        if not path.exists():
            raise UsageError(f"{name} path does not exist: {path}")
        return path

    def output_path(self, what: str, fallback: str | None = None) -> Path:
        """The ``output`` setting, else the ``fallback`` setting when one is named."""
        value = self.get("output") or (fallback and self.get(fallback))
        if not value:
            raise UsageError(f"missing required {what} output path")
        return Path(value)


def _unread_keys(config: configparser.ConfigParser) -> list[str]:
    """``[section] key`` of each key no setting reads, in the sections settings read.

    Every ``[DEFAULT]`` key counts: configparser copies it into every
    section, where it would set each setting of its name at once.
    """
    defaults = config.defaults()
    unread = [f"[DEFAULT] {key}" for key in defaults]
    for section in config.sections():
        known = _CONFIG_KEYS.get(section)
        if known is not None:
            unread += [f"[{section}] {key}" for key in config[section]
                       if key not in known and key not in defaults]
    return unread


def _provider(s: Settings):
    kind = s.get("provider")
    dim = s.positive("dim")
    seed = s.integer("seed")
    model = s.get("model")
    if kind == "local":
        spec = ProviderSpec(LOCAL_PROVIDER_ID, model or f"trigram-d{dim}-s{seed}", dim, seed=seed)
        return LocalTrigramProvider(spec)
    if kind == "remote":
        if not model:
            raise UsageError("remote provider requires a model id")
        endpoint = s.get("provider_endpoint")
        if not endpoint:
            section, key = SETTINGS["provider_endpoint"][:2]
            raise UsageError(f"remote provider requires [{section}] {key} in the config")
        timeout = s.positive_float("provider_timeout")
        spec = ProviderSpec(REMOTE_PROVIDER_ID, model, dim, endpoint=endpoint, timeout=timeout)
        cache_dir = s.get("cache_dir")
        return RemoteProvider(spec, cache=VectorCache(cache_dir) if cache_dir else None)
    raise UsageError(f"unknown provider kind {kind!r} (expected local or remote)")


def _completion_endpoint(s: Settings):
    url = s.get("endpoint")
    fixtures = s.get("fixtures")
    base = None
    if url in _MOCK_ENDPOINTS:
        base = _MOCK_ENDPOINTS[url]()
    elif url is not None and url.startswith("mock:"):
        raise UsageError(
            f"unknown mock endpoint {url!r} (expected one of {sorted(_MOCK_ENDPOINTS)})"
        )
    elif url is not None:
        base = HttpCompletionEndpoint(
            url, s.get("completion_model"), timeout=s.positive_float("endpoint_timeout"),
        )
    if fixtures is not None:
        return TranscriptStore(fixtures, base)
    if base is None:
        raise UsageError("no completion endpoint: pass --endpoint or --fixtures")
    return base


def _prompt_config(s: Settings) -> PromptConfig:
    return PromptConfig(
        include_source_context=s.boolean("source_context"),
        include_candidate_context=s.boolean("candidate_context"),
    )


def _open_inputs(s: Settings, *, with_ontology: bool = False):
    """Check the input paths, ``strict`` and the provider, then read the
    ontology (if asked for), the memory and, if its dim, provider and
    concepts fit, the queries.

    Callers resolve their own settings first, so that every usage error is
    raised before the first file is parsed.
    """
    ontology_path = s.input_path("ontology") if with_ontology else None
    queries_path = s.input_path("queries")
    memory_path = s.input_path("memory")
    strict = s.boolean("strict")
    provider = _provider(s)
    ontology = None if ontology_path is None else parse_ontology(ontology_path, ontology_path.stem)
    memory = load_memory(memory_path)
    if memory.dim != provider.spec.dim:
        raise DimMismatch(memory.dim, provider.spec.dim)
    check_provider(memory, provider.spec.fingerprint, strict=strict)
    if ontology is not None:
        # any order of the same concepts will do; a changed set never will
        stored, listed = set(memory.concept_ids), set(ontology.ids)
        if stored != listed:
            raise ConceptSetMismatch([cid for cid in memory.concept_ids if cid not in listed],
                                     [cid for cid in ontology.ids if cid not in stored])
    return ontology, provider, memory, parse_queries(queries_path)


# --- subcommands ------------------------------------------------------------

def cmd_build_memory(s: Settings) -> int:
    ontology_path = s.input_path("ontology")
    out = s.output_path("memory", fallback="memory")
    provider = _provider(s)

    ontology = parse_ontology(ontology_path, ontology_path.stem)
    memory = build_memory(ontology, provider)
    save_memory(memory, out)

    described = sum(1 for description in ontology.descriptions if description)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"entries: {len(ontology)}+{described}")
    print(f"provider: {memory.provider_fingerprint[0]}/{memory.provider_fingerprint[1]}")
    print(f"dim: {memory.dim}")
    print(f"sha256: {digest}")
    print(f"wrote {out}")
    return 0


def cmd_retrieve(s: Settings) -> int:
    out = s.output_path("retrieval")
    k = s.positive("k")
    _, provider, memory, queries = _open_inputs(s)

    candidates = retrieve_for_queries(memory, queries, provider, k)
    write_retrievals(out, [(q.id, slate) for q, slate in zip(queries, candidates)])
    print(f"queries: {len(queries)}")
    print(f"wrote {out}")
    return 0


def cmd_link(s: Settings) -> int:
    out = s.output_path("predictions")
    k = s.positive("k")
    concurrency = s.positive("concurrency")
    token_budget = s.positive("token_budget")
    endpoint = _completion_endpoint(s)
    prompt_config = _prompt_config(s)
    ontology, provider, memory, queries = _open_inputs(s, with_ontology=True)

    candidates = retrieve_for_queries(memory, queries, provider, k)
    journal = LinkJournal(Path(str(out) + ".details.jsonl"))
    results = link_queries(
        queries, candidates, ontology, prompt_config, endpoint,
        concurrency=concurrency, journal=journal, token_budget=token_budget,
    )
    write_predictions(out, results, candidates)

    kinds = Counter(result.selection.kind for result in results)
    print(f"queries: {len(results)}")
    print("kinds: " + ", ".join(f"{kind.value}={kinds.get(kind, 0)}" for kind in SelectionKind))
    print(f"wrote {out}")
    return 0


def cmd_evaluate(s: Settings) -> int:
    gold_path = s.input_path("gold")
    predictions, retrievals = s.get("predictions"), s.get("retrievals")
    if (predictions is None) == (retrievals is None):
        raise UsageError("pass exactly one of --predictions or --retrievals")
    mode = "predictions" if predictions is not None else "retrievals"
    path = s.input_path(mode)
    report: dict = {"mode": mode, "inputs": {mode: str(s.get(mode)), "gold": str(gold_path)}}
    if mode == "retrievals":
        ks_raw = s.get("ks")
        try:
            report["ks"] = [int(part) for part in str(ks_raw).split(",") if part.strip()]
        except ValueError:
            raise UsageError(f"--ks must be comma-separated integers, got {ks_raw!r}") from None
        check_ks(report["ks"])

    gold = parse_gold(gold_path)
    if mode == "predictions":
        metrics = score_predictions(parse_predictions(path), gold)
    else:
        pairs = {pair.source_id: pair.target_id for pair in gold}
        metrics = score_retrievals(parse_retrievals(path), pairs, report["ks"])
    report["rows"] = [{"label": "evaluation", "metrics": metrics.to_dict(), "error": None}]

    print(render_report(report))
    output = s.get("output")
    if output:
        write_report(output, report)
        print(f"wrote {output}")
    return 0


def cmd_ablate(s: Settings) -> int:
    gold_path = s.input_path("gold")
    grid_path = s.input_path("grid")
    out = s.output_path("report")
    k = s.positive("k")
    concurrency = s.positive("concurrency")
    token_budget = s.positive("token_budget")
    endpoint = _completion_endpoint(s)
    ontology, provider, memory, queries = _open_inputs(s, with_ontology=True)
    gold = parse_gold(gold_path)
    arms = parse_grid(grid_path)

    rows = run_ablation(
        queries, gold, ontology, memory, provider, endpoint, arms,
        k=k, concurrency=concurrency, token_budget=token_budget,
    )
    report = {
        "k": k,
        "provider": list(provider.spec.fingerprint),
        "retrieval_digest": rows[0].retrieval_digest,
        "rows": [row.to_dict() for row in rows],
    }
    write_report(out, report)
    print(render_report(report))
    print(f"wrote {out}")
    return 0


# --- parser and dispatch ----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptlinker",
        description="Retrieve-and-rank concept linking over ontology embeddings.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, func, summary in (
        ("build-memory", cmd_build_memory, "embed an ontology into a memory file"),
        ("retrieve", cmd_retrieve, "write top-k candidates per query, no ranking"),
        ("link", cmd_link, "retrieve and rank every query, write predictions"),
        ("evaluate", cmd_evaluate, "score predictions or retrievals against gold"),
        ("ablate", cmd_ablate, "run a grid of prompt configurations, one report row each"),
    ):
        flags = sub.add_parser(command, help=summary)
        flags.set_defaults(func=func)
        flags.add_argument("--config", help="INI config file; flags override its values")
        for name, (_, _, default, help_text) in SETTINGS.items():
            if help_text is None or _COMMAND_FLAGS.get(name, command) != command:
                continue
            if isinstance(default, bool):
                kind = {"action": argparse.BooleanOptionalAction}
            elif isinstance(default, int):
                kind = {"type": int}
            else:
                kind = {"choices": ["local", "remote"]} if name == "provider" else {}
            flags.add_argument("--" + name.replace("_", "-"), help=help_text, **kind)
    return parser


def _classify(exc: BaseException) -> int:
    """Exit code for a pipeline error, looking through wrapping causes."""
    seen: BaseException | None = exc
    while seen is not None:
        if isinstance(seen, ValidationError):
            return 2
        if isinstance(seen, ServiceError):
            return 3
        seen = seen.__cause__
    return 4


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(Settings(args))
    except configparser.Error as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return 2
    except LinkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify(exc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


def entrypoint() -> None:
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
