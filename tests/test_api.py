"""The public API: the names the package exports, and README's library example."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import conceptlinker
from conceptlinker import KeywordMockEndpoint

from .test_pipeline import stable_fields

ROOT = Path(__file__).parents[1]

# every public name, sorted; a change to the API edits this list
PUBLIC_NAMES = [
    "API_KEY_ENV", "AblationArm", "AblationRow", "Candidate", "ExactMatchMockEndpoint",
    "GoldPair", "HttpCompletionEndpoint", "KeywordMockEndpoint", "LOCAL_PROVIDER_ID",
    "LinkJournal", "LinkResult", "LinkerError", "LocalTrigramProvider", "Memory",
    "MetricsReport", "OneShotExample", "Ontology", "Prediction", "PromptConfig",
    "ProviderSpec", "Query", "REMOTE_PROVIDER_ID", "RemoteProvider", "ScriptedEndpoint",
    "Selection", "SelectionKind", "ServiceError", "TranscriptMiss", "TranscriptStore",
    "TransportError", "ValidationError", "Variant", "VectorCache", "build_memory",
    "build_prompt", "concept_text", "cosine", "f1_from", "link_queries", "load_memory",
    "local_embed", "parse_gold", "parse_grid", "parse_ontology", "parse_predictions",
    "parse_prompt", "parse_queries", "parse_response", "parse_retrievals", "prompt_digest",
    "query_text", "render_report", "retrieval_digest", "retrieve_batch",
    "retrieve_for_queries", "run_ablation", "save_memory", "score_predictions",
    "score_retrievals", "write_predictions", "write_report", "write_retrievals",
]


def test_all_is_the_pinned_public_api():
    assert sorted(conceptlinker.__all__) == PUBLIC_NAMES
    assert len(set(conceptlinker.__all__)) == len(conceptlinker.__all__)
    for name in PUBLIC_NAMES:
        getattr(conceptlinker, name)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    shutil.copytree(ROOT / "demos" / "data", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    namespace = {"endpoint": KeywordMockEndpoint()}
    exec(compile(block, "README.md", "exec"), namespace)
    results = namespace["results"]
    assert len(results) == len(namespace["queries"]) > 0
    assert stable_fields(namespace["recorded"]) == stable_fields(results)
    assert stable_fields(namespace["replayed"]) == stable_fields(results)
