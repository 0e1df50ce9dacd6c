"""
Prompt construction, response parsing, and the ranking loop
===========================================================

The second stage turns a candidate slate into a numbered-options prompt
with an explicit none-of-the-above escape hatch, sends it to a
completion endpoint, and parses whatever comes back into a total
Selection: an option, none, a parse failure, or a transport error.
"""

import tempfile
from pathlib import Path

from conceptlinker import (
    LOCAL_PROVIDER_ID,
    LocalTrigramProvider,
    OneShotExample,
    PromptConfig,
    ProviderSpec,
    ScriptedEndpoint,
    TranscriptStore,
    build_memory,
    build_prompt,
    link_queries,
    parse_ontology,
    parse_queries,
    retrieve_for_queries,
)

DATA = Path(__file__).parent / "data"

provider = LocalTrigramProvider(ProviderSpec(LOCAL_PROVIDER_ID, "trigram-d256-s0", 256))
ontology = parse_ontology(DATA / "ontology.jsonl", tag="demo")
memory = build_memory(ontology, provider)
queries = parse_queries(DATA / "queries.jsonl")

query = queries[0]  # the P2Y12 query, context and all
candidates = retrieve_for_queries(memory, [query], provider, 3)[0]

# One worked example steers small models toward the expected answer shape.
config = PromptConfig(
    one_shot=OneShotExample(
        query="warfarin sensitivity",
        options=("0: Warfarin resistance | Reduced response to warfarin therapy\n"
                 "1: Vitamin K deficiency"),
        answer="option 0",
    )
)

print("=== rendered prompt " + "=" * 40)
print(build_prompt(query, candidates, ontology, config))
print("=" * 60 + "\n")


def link_one(endpoint):
    """Link the one query against its slate: link_queries on a batch of one."""
    [result] = link_queries([query], [candidates], ontology, config, endpoint, concurrency=1)
    return result


# A model reply can bury the choice in justification text; the parser
# still finds it. Attempts and the prompt digest ride along.
result = link_one(ScriptedEndpoint(["option 0: the ADP receptor defect fits the abstract."]))
print(f"reply parsed as {result.selection.kind.value!r} "
      f"index={result.selection.index} -> {result.resolved}")

# An unparseable first reply triggers exactly one re-ask with a firmer
# instruction appended; a clean second reply still resolves.
result = link_one(ScriptedEndpoint(["hmm, hard to say...", "1"]))
print(f"after {result.attempts} attempts -> {result.selection.kind.value} "
      f"({result.resolved})")

# Exchanges can be recorded once and replayed forever: responses are
# keyed by the SHA-256 of the prompt, so a replayed run needs no model.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "transcript.jsonl"
    recorded = link_one(TranscriptStore(path, ScriptedEndpoint(["option 0"])))
    replayed = link_one(TranscriptStore(path))
    print(f"record/replay agree: {recorded.resolved == replayed.resolved} "
          f"({replayed.resolved})")
