"""
Building an embedding memory and retrieving candidates
======================================================

Every concept is embedded twice where possible: once as its bare name,
and once as "name: description". Both entries point back at the same
concept, so a query can match on either surface form. Retrieval scores
every entry by cosine similarity and keeps each concept's best variant.
"""

from pathlib import Path

from conceptlinker import (
    LOCAL_PROVIDER_ID,
    LocalTrigramProvider,
    ProviderSpec,
    build_memory,
    load_memory,
    parse_ontology,
    parse_queries,
    query_text,
    retrieve_batch,
    save_memory,
)

DATA = Path(__file__).parent / "data"

# The deterministic local provider hashes character trigrams into a
# fixed-width vector. No network, no key, same bytes every run.
provider = LocalTrigramProvider(ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d256-s0", 256))

ontology = parse_ontology(DATA / "ontology.jsonl", tag="demo")
memory = build_memory(ontology, provider)

described = sum(1 for c in ontology if c.description)
print(f"concepts: {len(ontology)}  described: {described}")
print(f"memory entries: {len(memory)} (= {len(ontology)} names + {described} described)")

# The memory round-trips through a binary file without losing a bit,
# which is what makes rebuilds byte-identical.
out = Path(__file__).parent / "data" / "memory.bin"
save_memory(memory, out)
memory = load_memory(out, expected_provider=provider.spec.fingerprint)
print(f"reloaded from {out.name}: dim={memory.dim}\n")

# Retrieve top-5 candidates for each demo query. The query text follows
# the same "mention: context" shape the described entries use. The provider
# embeds the whole batch as one (queries, dim) float32 matrix, and
# retrieve_batch returns one slate per row.
queries = parse_queries(DATA / "queries.jsonl")
vectors = provider.embed_batch([query_text(query) for query in queries])
for query, slate in zip(queries, retrieve_batch(memory, vectors, 5)):
    print(f"{query.id}: {query.mention!r}")
    for candidate in slate:
        name = ontology.get(candidate.concept_id).name
        print(f"   {candidate.score:6.3f}  {candidate.concept_id}  "
              f"[{candidate.variant.value}]  {name}")
    print()

out.unlink()
