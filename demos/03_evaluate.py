"""
Scoring a linking run: accuracy, precision/recall/F1, and hits@k
===============================================================

Accuracy charges every gold query, so abstentions and failures count
against it. Precision only divides by queries where a concept was
actually predicted; recall divides by the gold count. Hits@k scores the
retrieval stage alone: was the right concept anywhere in the top k?
"""

from pathlib import Path

from conceptlinker import (
    LOCAL_PROVIDER_ID,
    GoldPair,
    KeywordMockEndpoint,
    LocalTrigramProvider,
    PromptConfig,
    ProviderSpec,
    build_memory,
    link_queries,
    parse_gold,
    parse_ontology,
    parse_queries,
    render_report,
    retrieve_for_queries,
    score_predictions,
    score_retrievals,
)

DATA = Path(__file__).parent / "data"

provider = LocalTrigramProvider(ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d256-s0", 256))
ontology = parse_ontology(DATA / "ontology.jsonl", tag="demo")
memory = build_memory(ontology, provider)
queries = parse_queries(DATA / "queries.jsonl")
gold = parse_gold(DATA / "gold.jsonl")

# The keyword mock stands in for a real model: it picks the option whose
# description shares the most words with the query and its context.
candidates = retrieve_for_queries(memory, queries, provider, 5)
results = link_queries(queries, candidates, ontology, PromptConfig(),
                       KeywordMockEndpoint())

for result in results:
    print(f"{result.query_id}: {result.selection.kind.value:14s} -> {result.resolved}")
print()

report = score_predictions(results, gold)
print(render_report({"rows": [
    {"label": "keyword mock", "metrics": report.to_dict(), "error": None},
]}))
print()

# Retrieval quality on its own: the gold concept's rank decides hits@k.
retrievals = {q.id: [c.concept_id for c in slate]
              for q, slate in zip(queries, candidates)}
retrieval = score_retrievals(retrievals, {p.source_id: p.target_id for p in gold}, [1, 3, 5])
for k, value in retrieval.hits_at.items():
    print(f"hits@{k}: {value:.4f}")
