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
import sys
import traceback
from collections import Counter
from pathlib import Path

from .embedding import (
    LOCAL_PROVIDER_ID,
    REMOTE_PROVIDER_ID,
    ProviderSpec,
    make_provider,
)
from .errors import LinkerError, ServiceError, ValidationError
from .evaluation import (
    DEFAULT_HITS_KS,
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
from .memory import build_memory, load_memory, save_memory
from .ontology import parse_ontology, parse_queries
from .pipeline import DEFAULT_CONCURRENCY, LinkJournal, link_queries, retrieve_for_queries
from .ranker import PromptConfig, SelectionKind, TEMPLATE_V1

logger = logging.getLogger(__name__)

DEFAULT_K = 10
DEFAULT_DIM = 256

_MOCK_ENDPOINTS = {
    "mock:exact": ExactMatchMockEndpoint,
    "mock:keyword": KeywordMockEndpoint,
}


class UsageError(ValidationError):
    """Bad flag or config-file combination; maps to exit code 2."""


# --- settings resolution ----------------------------------------------------

def _load_config(path: str | None) -> configparser.ConfigParser | None:
    if path is None:
        return None
    if not Path(path).exists():
        raise UsageError(f"config path does not exist: {path}")
    config = configparser.ConfigParser(interpolation=None)
    config.read(path, encoding="utf-8")
    return config


def _setting(args, config, attr: str | None, section: str, key: str, default=None):
    """One resolved setting: flag if given, else config file, else default.

    ``attr`` is None for config-file-only settings with no flag.
    """
    value = getattr(args, attr, None) if attr else None
    if value is None and config is not None:
        value = config.get(section, key, fallback=None)
    return default if value is None else value


def _int_setting(args, config, attr, section, key, default=None) -> int | None:
    value = _setting(args, config, attr, section, key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {value!r}") from None


def _bool_setting(args, config, attr, section, key, default: bool) -> bool:
    value = _setting(args, config, attr, section, key, default)
    if isinstance(value, bool):
        return value
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[str(value).lower()]
    except KeyError:
        raise UsageError(f"{key} must be a boolean, got {value!r}") from None


def _input_path(value, what: str) -> Path:
    if not value:
        raise UsageError(f"missing required {what} path")
    path = Path(value)
    if not path.exists():
        raise UsageError(f"{what} path does not exist: {path}")
    return path


def _output_path(value, what: str) -> Path:
    if not value:
        raise UsageError(f"missing required {what} output path")
    return Path(value)


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise UsageError(f"{what} must be >= 1, got {value}")
    return value


def _provider(args, config):
    kind = _setting(args, config, "provider", "provider", "kind", "local")
    dim = _positive(_int_setting(args, config, "dim", "provider", "dim", DEFAULT_DIM), "dim")
    seed = _int_setting(args, config, "seed", "provider", "seed", 0)
    model = _setting(args, config, "model", "provider", "model")
    cache_dir = _setting(args, config, "cache_dir", "paths", "cache_dir")
    if kind == "local":
        model = model or f"trigram-d{dim}-s{seed}"
        spec = ProviderSpec(LOCAL_PROVIDER_ID, model, dim, seed=seed)
    elif kind == "remote":
        if not model:
            raise UsageError("remote provider requires a model id")
        endpoint = _setting(args, config, None, "provider", "endpoint")
        if not endpoint:
            raise UsageError("remote provider requires [provider] endpoint in the config")
        timeout = float(_setting(args, config, None, "provider", "timeout", 30.0))
        spec = ProviderSpec(REMOTE_PROVIDER_ID, model, dim, endpoint=endpoint, timeout=timeout)
    else:
        raise UsageError(f"unknown provider kind {kind!r} (expected local or remote)")
    return make_provider(spec, cache_dir=cache_dir)


def _completion_endpoint(args, config, *, required: bool):
    url = _setting(args, config, "endpoint", "endpoint", "url")
    fixtures = _setting(args, config, "fixtures", "paths", "fixtures")
    base = None
    if url is not None:
        if url in _MOCK_ENDPOINTS:
            base = _MOCK_ENDPOINTS[url]()
        elif url.startswith("mock:"):
            raise UsageError(
                f"unknown mock endpoint {url!r} (expected one of {sorted(_MOCK_ENDPOINTS)})"
            )
        else:
            model = _setting(args, config, "completion_model", "endpoint", "model", "ranker")
            budget = _int_setting(args, config, None, "endpoint", "token_budget")
            timeout = float(_setting(args, config, None, "endpoint", "timeout", 60.0))
            base = HttpCompletionEndpoint(url, model, timeout=timeout, token_budget=budget)
    if fixtures is not None:
        store = TranscriptStore(fixtures)
        return store.recording(base) if base is not None else store.replay()
    if base is None and required:
        raise UsageError("no completion endpoint: pass --endpoint or --fixtures")
    return base


def _prompt_config(args, config) -> PromptConfig:
    return PromptConfig(
        include_source_context=_bool_setting(
            args, config, "source_context", "prompt", "source_context", True
        ),
        include_candidate_context=_bool_setting(
            args, config, "candidate_context", "prompt", "candidate_context", True
        ),
        none_label=_setting(args, config, "none_label", "prompt", "none_label", "None"),
        max_option_context_chars=_int_setting(
            args, config, None, "prompt", "max_option_context_chars", 600
        ),
        template_id=_setting(args, config, "template", "run", "template", TEMPLATE_V1),
    )


# --- subcommands ------------------------------------------------------------

def cmd_build_memory(args) -> int:
    config = _load_config(args.config)
    ontology_path = _input_path(
        _setting(args, config, "ontology", "paths", "ontology"), "ontology"
    )
    out = _output_path(
        _setting(args, config, "output", "paths", "output")
        or _setting(args, config, "memory", "paths", "memory"),
        "memory",
    )
    tag = _setting(args, config, "tag", "run", "tag", ontology_path.stem)
    provider = _provider(args, config)

    ontology = parse_ontology(ontology_path, tag)
    memory = build_memory(ontology, provider)
    save_memory(memory, out)

    described = sum(1 for concept in ontology if concept.description)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"entries: {len(ontology)}+{described}")
    print(f"provider: {memory.provider_fingerprint[0]}/{memory.provider_fingerprint[1]}")
    print(f"dim: {memory.dim}")
    print(f"sha256: {digest}")
    print(f"wrote {out}")
    return 0


def cmd_retrieve(args) -> int:
    config = _load_config(args.config)
    queries_path = _input_path(
        _setting(args, config, "queries", "paths", "queries"), "queries"
    )
    memory_path = _input_path(
        _setting(args, config, "memory", "paths", "memory"), "memory"
    )
    out = _output_path(_setting(args, config, "output", "paths", "output"), "retrieval")
    k = _positive(_int_setting(args, config, "k", "run", "k", DEFAULT_K), "k")
    strict = _bool_setting(args, config, "strict", "run", "strict", False)
    provider = _provider(args, config)

    memory = load_memory(
        memory_path, expected_provider=provider.spec.fingerprint, strict=strict
    )
    queries = parse_queries(queries_path)
    candidates = retrieve_for_queries(memory, queries, provider, k)
    write_retrievals(out, [(q.id, slate) for q, slate in zip(queries, candidates)])
    print(f"queries: {len(queries)}")
    print(f"wrote {out}")
    return 0


def cmd_link(args) -> int:
    config = _load_config(args.config)
    ontology_path = _input_path(
        _setting(args, config, "ontology", "paths", "ontology"), "ontology"
    )
    queries_path = _input_path(
        _setting(args, config, "queries", "paths", "queries"), "queries"
    )
    memory_path = _input_path(
        _setting(args, config, "memory", "paths", "memory"), "memory"
    )
    out = _output_path(_setting(args, config, "output", "paths", "output"), "predictions")
    k = _positive(_int_setting(args, config, "k", "run", "k", DEFAULT_K), "k")
    concurrency = _positive(
        _int_setting(args, config, "concurrency", "run", "concurrency", DEFAULT_CONCURRENCY),
        "concurrency",
    )
    strict = _bool_setting(args, config, "strict", "run", "strict", False)
    tag = _setting(args, config, "tag", "run", "tag", ontology_path.stem)
    provider = _provider(args, config)
    endpoint = _completion_endpoint(args, config, required=True)
    prompt_config = _prompt_config(args, config)

    ontology = parse_ontology(ontology_path, tag)
    memory = load_memory(
        memory_path, expected_provider=provider.spec.fingerprint, strict=strict
    )
    queries = parse_queries(queries_path)
    candidates = retrieve_for_queries(memory, queries, provider, k)
    journal = LinkJournal(Path(str(out) + ".details.jsonl"))
    results = link_queries(
        queries, candidates, ontology, prompt_config, endpoint,
        concurrency=concurrency, journal=journal,
    )
    write_predictions(out, results, candidates)

    kinds = Counter(result.selection.kind for result in results)
    print(f"queries: {len(results)}")
    print("kinds: " + ", ".join(f"{kind.value}={kinds.get(kind, 0)}" for kind in SelectionKind))
    print(f"wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    gold_path = _input_path(_setting(args, config, "gold", "paths", "gold"), "gold")
    predictions = _setting(args, config, "predictions", "paths", "predictions")
    retrievals = _setting(args, config, "retrievals", "paths", "retrievals")
    if (predictions is None) == (retrievals is None):
        raise UsageError("pass exactly one of --predictions or --retrievals")

    gold = parse_gold(gold_path)
    if predictions is not None:
        rows = parse_predictions(_input_path(predictions, "predictions"))
        metrics = score_predictions(rows, gold)
        report = {
            "mode": "predictions",
            "inputs": {"predictions": str(predictions), "gold": str(gold_path)},
            "rows": [{"label": "evaluation", "metrics": metrics.to_dict(), "error": None}],
        }
    else:
        ranked = parse_retrievals(_input_path(retrievals, "retrievals"))
        ks_raw = _setting(
            args, config, "ks", "run", "ks", ",".join(map(str, DEFAULT_HITS_KS))
        )
        try:
            ks = [int(part) for part in str(ks_raw).split(",") if part.strip()]
        except ValueError:
            raise UsageError(f"--ks must be comma-separated integers, got {ks_raw!r}") from None
        pairs = {pair.source_id: pair.target_id for pair in gold}
        metrics = score_retrievals(ranked, pairs, ks)
        report = {
            "mode": "retrievals",
            "inputs": {"retrievals": str(retrievals), "gold": str(gold_path)},
            "ks": ks,
            "rows": [{"label": "evaluation", "metrics": metrics.to_dict(), "error": None}],
        }

    print(render_report(report))
    output = _setting(args, config, "output", "paths", "output")
    if output:
        write_report(output, report)
        print(f"wrote {output}")
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args.config)
    ontology_path = _input_path(
        _setting(args, config, "ontology", "paths", "ontology"), "ontology"
    )
    queries_path = _input_path(
        _setting(args, config, "queries", "paths", "queries"), "queries"
    )
    memory_path = _input_path(
        _setting(args, config, "memory", "paths", "memory"), "memory"
    )
    gold_path = _input_path(_setting(args, config, "gold", "paths", "gold"), "gold")
    grid_path = _input_path(_setting(args, config, "grid", "paths", "grid"), "grid")
    out = _output_path(_setting(args, config, "output", "paths", "output"), "report")
    k = _positive(_int_setting(args, config, "k", "run", "k", DEFAULT_K), "k")
    concurrency = _positive(
        _int_setting(args, config, "concurrency", "run", "concurrency", DEFAULT_CONCURRENCY),
        "concurrency",
    )
    strict = _bool_setting(args, config, "strict", "run", "strict", False)
    tag = _setting(args, config, "tag", "run", "tag", ontology_path.stem)
    provider = _provider(args, config)
    endpoint = _completion_endpoint(args, config, required=True)

    ontology = parse_ontology(ontology_path, tag)
    memory = load_memory(
        memory_path, expected_provider=provider.spec.fingerprint, strict=strict
    )
    queries = parse_queries(queries_path)
    gold = parse_gold(gold_path)
    arms = parse_grid(grid_path)

    rows = run_ablation(
        queries, gold, ontology, memory, provider, endpoint, arms,
        k=k, concurrency=concurrency,
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

def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--config", help="INI config file; flags override its values")
    add("--ontology", help="ontology concepts file (JSON Lines)")
    add("--queries", help="queries file (JSON Lines)")
    add("--memory", help="embedding memory file")
    add("--gold", help="gold pairs file (JSON Lines)")
    add("--k", type=int, help="candidates to retrieve per query")
    add("--provider", choices=["local", "remote"], help="embedding provider kind")
    add("--model", help="embedding model id")
    add("--dim", type=int, help="embedding dimension")
    add("--seed", type=int, help="local embedder seed")
    add("--endpoint", help="completion endpoint URL, mock:exact, or mock:keyword")
    add("--completion-model", dest="completion_model", help="completion model id")
    add("--concurrency", type=int, help="parallel ranking calls")
    add("--cache-dir", dest="cache_dir", help="embedding cache directory")
    add("--fixtures", help="transcript file: records with --endpoint, replays without")
    add("--output", help="output path for this command's artifact")
    add("--strict", action=argparse.BooleanOptionalAction,
        help="fail instead of warn on provider fingerprint mismatch")
    add("--template", help="prompt template id")
    add("--tag", help="ontology tag (defaults to the ontology file stem)")
    add("--none-label", dest="none_label", help="label of the none-of-the-above option")
    add("--source-context", dest="source_context", action=argparse.BooleanOptionalAction,
        help="include the query's context block in prompts")
    add("--candidate-context", dest="candidate_context",
        action=argparse.BooleanOptionalAction,
        help="include candidate descriptions in prompts")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptlinker",
        description="Retrieve-and-rank concept linking over ontology embeddings.",
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("build-memory", parents=[common],
                       help="embed an ontology into a memory file")
    p.set_defaults(func=cmd_build_memory)

    p = sub.add_parser("retrieve", parents=[common],
                       help="write top-k candidates per query, no ranking")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("link", parents=[common],
                       help="retrieve and rank every query, write predictions")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score predictions or retrievals against gold")
    p.add_argument("--predictions", help="predictions TSV to score")
    p.add_argument("--retrievals", help="retrieval file to score with hits@k")
    p.add_argument("--ks", help="comma-separated hits@k cutoffs (default 1,5,10)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", parents=[common],
                       help="run a grid of prompt configurations, one report row each")
    p.add_argument("--grid", help="JSON Lines grid of prompt configurations")
    p.set_defaults(func=cmd_ablate)

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
        return args.func(args)
    except configparser.Error as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return 2
    except LinkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
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
