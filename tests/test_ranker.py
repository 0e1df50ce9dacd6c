"""Prompt rendering, the response grammar, and the ranking loop."""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptlinker import (
    Candidate,
    Concept,
    OneShotExample,
    Ontology,
    PromptConfig,
    Query,
    ScriptedEndpoint,
    Selection,
    SelectionKind,
    Variant,
    build_prompt,
    fit_prompt,
    parse_response,
    prompt_digest,
    rank,
)
from conceptlinker.errors import (
    EmptyCandidates,
    PromptBudgetExceeded,
    TransportError,
    UnresolvableCandidate,
)
from conceptlinker.ranker import MAX_OPTION_CONTEXT_CHARS, NONE_LABEL, estimate_tokens
from conceptlinker.textutil import truncate_at_word

from .conftest import ontology_from
from .oracles import parse_response_ref

DATA = Path(__file__).parent / "data"

OPTION = SelectionKind.OPTION
NONE = SelectionKind.NONE_OF_THE_ABOVE
FAIL = SelectionKind.PARSE_FAILURE

LONG_RUN = "9" * 5000  # past int()'s default 4,300-digit limit

# pieces of replies, digits of other scripts included, for the grammar oracle
REPLY_TOKENS = ["option ", "Option", "option\t", "0", "1", "3", "07", "12", "00",
                "\u0663", "\u0660", "\uff10", "\uff11", ":", " ", "\t", "\n", "\r",
                "None", "none", "x", "."]

# (response text, n_options, expected kind, expected index)
PARSE_FIXTURES = [
    ("option 0: Bleeding disorder due to P2Y12 defect", 10, OPTION, 0),
    ("Option 2", 5, OPTION, 2),
    ("OPTION 1 looks right to me", 5, OPTION, 1),
    ("I would choose option 3 because the description matches.", 5, OPTION, 3),
    ("The best answer is option 9, then option 2.", 5, OPTION, 2),
    ("option 7", 5, FAIL, None),
    ("2:", 5, OPTION, 2),
    ("2: Thrombocytopenia", 5, OPTION, 2),
    ("3", 5, OPTION, 3),
    ("  1  ", 5, OPTION, 1),
    ("9\n1", 5, OPTION, 1),
    ("2\n1", 5, OPTION, 2),
    ("None", 5, NONE, None),
    ("none of the above", 5, NONE, None),
    ("NONE.", 5, NONE, None),
    ("The answer is None, since nothing matches.", 5, NONE, None),
    ("(none)", 5, NONE, None),
    ("Nonesuch", 5, FAIL, None),
    ("nonetheless", 5, FAIL, None),
    ("None of these fit, but if forced I pick option 1.", 5, OPTION, 1),
    ("1:\nNone", 5, OPTION, 1),
    ("I cannot decide.", 5, FAIL, None),
    ("", 5, FAIL, None),
    ("Maybe 42?", 5, FAIL, None),
    ("option one", 5, FAIL, None),
    ("12: big option index", 20, OPTION, 12),
    ("Answer: option 0", 1, OPTION, 0),
    ("option 002", 5, OPTION, 2),
    ("\u0660\u0663", 5, OPTION, 3),  # Arabic-Indic "03": leading zeros of any script
    ("option \uff10\uff12", 5, OPTION, 2),
]


def fixture_ontology() -> Ontology:
    return ontology_from("orpha", [
        Concept(
            id="ORPHA:721",
            name="Bleeding disorder due to P2Y12 defect",
            description=(
                "A rare inherited coagulation disorder with impaired platelet "
                "aggregation caused by defects of the P2Y12 receptor"
            ),
        ),
        Concept(
            id="ORPHA:3321",
            name="Thrombocytopenia",
            description="Abnormally low platelet count leading to easy bruising and bleeding",
        ),
        Concept(id="ORPHA:98878", name="Hemophilia"),
    ])


def fixture_query() -> Query:
    return Query(
        id="q1",
        mention="platelet P2Y12 disorder",
        context=(
            "Proband with mucocutaneous bleeding and impaired ADP-induced "
            "platelet aggregation"
        ),
    )


def fixture_candidates() -> list[Candidate]:
    return [
        Candidate("ORPHA:721", 0.91, Variant.NAME_WITH_CONTEXT),
        Candidate("ORPHA:3321", 0.64, Variant.NAME_ONLY),
        Candidate("ORPHA:98878", 0.41, Variant.NAME_ONLY),
    ]


def one_shot() -> OneShotExample:
    return OneShotExample(
        query="warfarin sensitivity",
        options=(
            "0: Warfarin resistance | Reduced response to warfarin therapy\n"
            "1: Vitamin K deficiency"
        ),
        answer="option 0",
    )


class TestBuildPrompt:
    def test_matches_golden_fixture(self):
        config = PromptConfig(one_shot=one_shot())
        prompt = build_prompt(fixture_query(), fixture_candidates(), fixture_ontology(), config)
        assert prompt == (DATA / "golden_prompt.txt").read_text(encoding="utf-8")

    def test_deterministic(self):
        config = PromptConfig()
        args = (fixture_query(), fixture_candidates(), fixture_ontology(), config)
        assert build_prompt(*args) == build_prompt(*args)

    def test_candidate_order_is_prompt_order(self):
        prompt = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        lines = prompt.splitlines()
        start = lines.index("Options:")
        assert lines[start + 1].startswith("0: Bleeding disorder due to P2Y12 defect")
        assert lines[start + 2].startswith("1: Thrombocytopenia")
        assert lines[start + 3] == "2: Hemophilia"

    def test_source_context_toggle(self):
        with_ctx = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        without = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(),
            PromptConfig(include_source_context=False),
        )
        assert "<abstract>" in with_ctx and "</abstract>" in with_ctx
        assert "<abstract>" not in without

    def test_candidate_context_toggle(self):
        without = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(),
            PromptConfig(include_candidate_context=False),
        )
        assert " | " not in without
        assert "0: Bleeding disorder due to P2Y12 defect" in without

    def test_description_budget_truncates_at_word(self):
        # one token short of the whole prompt: the cuts at 300 and 150 miss
        # both descriptions, so the cut at 75 is the one that fits
        full = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        prompt = fit_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig(),
            estimate_tokens(full) - 1,
        )
        option_line = next(l for l in prompt.splitlines() if l.startswith("0: "))
        description = option_line.split(" | ")[1]
        whole = fixture_ontology().get("ORPHA:721").description
        assert len(description) <= 75 < len(whole)
        assert not description.endswith(" ")
        assert whole.startswith(description)

    @pytest.mark.parametrize("config", [
        PromptConfig(),
        PromptConfig(include_source_context=False, include_candidate_context=False),
        PromptConfig(one_shot=one_shot()),
    ], ids=["default", "names-only", "one-shot"])
    def test_none_label_is_fixed(self, config):
        prompt = build_prompt(fixture_query(), fixture_candidates(), fixture_ontology(), config)
        lines = prompt.splitlines()
        assert lines[0].endswith("If no option matches, answer None.")
        assert lines[-3] == "None: none of the above options match"
        assert lines[-1].startswith("Answer with exactly one option number or None,")
        assert NONE_LABEL == "None"

    def test_no_query_context_omits_abstract(self):
        query = Query(id="q", mention="hemophilia")
        prompt = build_prompt(query, fixture_candidates(), fixture_ontology(), PromptConfig())
        assert "<abstract>" not in prompt

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidates):
            build_prompt(fixture_query(), [], fixture_ontology(), PromptConfig())

    def test_unresolvable_candidate(self):
        bad = [Candidate("ORPHA:404", 0.5, Variant.NAME_ONLY)]
        with pytest.raises(UnresolvableCandidate):
            build_prompt(fixture_query(), bad, fixture_ontology(), PromptConfig())


class TestPromptConfig:
    def test_only_the_three_ablation_axes(self):
        assert [f.name for f in fields(PromptConfig)] == [
            "include_source_context", "include_candidate_context", "one_shot",
        ]
        for field in ("none_label", "max_option_context_chars"):
            with pytest.raises(TypeError, match=field):
                PromptConfig(**{field: None})


class TestParseResponse:
    @pytest.mark.parametrize("text,n,kind,index", PARSE_FIXTURES)
    def test_grammar(self, text, n, kind, index):
        selection = parse_response(text, n)
        assert selection.kind is kind
        assert selection.index == index
        assert selection.raw_response == text

    @pytest.mark.parametrize("text,kind,index", [
        ("option " + LONG_RUN, FAIL, None),
        (LONG_RUN + ": first", FAIL, None),
        (LONG_RUN, FAIL, None),
        ("option " + LONG_RUN + "\n2", OPTION, 2),
        (LONG_RUN + ":\nNone", NONE, None),
        ("option " + "0" * 5000 + "2", OPTION, 2),
        ("0" * 5000, OPTION, 0),
        ("option 0001", OPTION, 1),
    ], ids=["option-word", "line-prefix", "line-exact", "then-line", "then-none",
            "zeros-then-digit", "only-zeros", "short-zeros"])
    def test_digit_runs_past_int_limit_never_raise(self, text, kind, index):
        selection = parse_response(text, 3)
        assert (selection.kind, selection.index) == (kind, index)

    @given(text=st.one_of(
        st.lists(st.sampled_from(REPLY_TOKENS), max_size=12).map("".join),
        st.text(max_size=30),
    ), n=st.integers(1, 15))
    def test_agrees_with_the_two_pass_grammar(self, text, n):
        selection = parse_response(text, n)
        assert (selection.kind.value, selection.index) == parse_response_ref(text, n)

    def test_n_options_validated(self):
        with pytest.raises(ValueError):
            parse_response("option 0", 0)

    def test_selection_invariant(self):
        with pytest.raises(ValueError):
            Selection(OPTION, "x", index=None)
        with pytest.raises(ValueError):
            Selection(NONE, "x", index=2)


class TestRank:
    def run(self, endpoint, config=None, candidates=None):
        return rank(
            fixture_query(),
            fixture_candidates() if candidates is None else candidates,
            fixture_ontology(),
            config or PromptConfig(),
            endpoint,
        )

    def test_option_resolves_concept(self):
        endpoint = ScriptedEndpoint(["option 1"])
        result = self.run(endpoint)
        assert result.selection.kind is OPTION
        assert result.resolved == "ORPHA:3321"
        assert result.attempts == 1
        expected = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        assert result.prompt_digest == hashlib.sha256(expected.encode()).hexdigest()

    def test_none_answer(self):
        result = self.run(ScriptedEndpoint(["None of the above."]))
        assert result.selection.kind is NONE
        assert result.resolved is None

    def test_reask_recovers(self):
        endpoint = ScriptedEndpoint(["mumble", "option 0"])
        result = self.run(endpoint)
        assert result.selection.kind is OPTION
        assert result.resolved == "ORPHA:721"
        assert result.attempts == 2
        assert endpoint.prompts[1].endswith(
            "Answer with only the option number or None."
        )
        # the re-ask extends the original prompt rather than replacing it
        assert endpoint.prompts[1].startswith(endpoint.prompts[0])

    def test_reask_exhausted_is_parse_failure(self):
        result = self.run(ScriptedEndpoint(["mumble", "still mumble"]))
        assert result.selection.kind is FAIL
        assert result.attempts == 2
        assert result.resolved is None

    def test_transport_failure_is_distinct_kind(self):
        class Down:
            token_budget = None

            def complete(self, prompt):
                raise TransportError(503, "unavailable")

        result = self.run(Down())
        assert result.selection.kind is SelectionKind.TRANSPORT_ERROR
        assert result.resolved is None
        assert "503" in result.selection.raw_response

    def test_empty_candidates_short_circuit(self):
        class Untouchable:
            token_budget = None

            def complete(self, prompt):
                raise AssertionError("endpoint must not be called")

        result = self.run(Untouchable(), candidates=[])
        assert result.selection.kind is NONE
        assert result.attempts == 0
        assert result.prompt_digest == hashlib.sha256(b"").hexdigest()


class TestBudget:
    def test_fit_noop_without_budget(self):
        full = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        fitted = fit_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        assert fitted == full

    def test_fit_shrinks_descriptions_first(self):
        config = PromptConfig()
        full = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), config
        )
        budget = estimate_tokens(full) - 5
        fitted = fit_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), config, budget
        )
        assert estimate_tokens(fitted) <= budget
        # names survive even when descriptions shrink
        assert "Bleeding disorder due to P2Y12 defect" in fitted

    def test_fit_drops_descriptions_when_needed(self):
        config = PromptConfig()
        bare = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(),
            PromptConfig(include_candidate_context=False),
        )
        budget = estimate_tokens(bare)
        fitted = fit_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), config, budget
        )
        assert fitted == bare

    def test_fit_halves_the_cut_then_drops_descriptions(self):
        long = " ".join(f"word{i:03d}" for i in range(200))
        ontology = ontology_from("long", [
            Concept(id="L:1", name="Long", description=long),
            Concept(id="L:2", name="Short", description="A short description"),
        ])
        query = Query(id="q", mention="long")
        candidates = [Candidate("L:1", 0.9, Variant.NAME_ONLY),
                      Candidate("L:2", 0.5, Variant.NAME_ONLY)]
        config = PromptConfig()
        prompt = fit_prompt(query, candidates, ontology, config)
        cuts = []
        while True:
            options = {line.split(": ", 1)[0]: line for line in prompt.splitlines()}
            cuts.append(options["0"].partition(" | ")[2] or None)
            # the short description survives every cut, then goes with the long one
            assert ("A short description" in options["1"]) == (cuts[-1] is not None)
            try:
                prompt = fit_prompt(query, candidates, ontology, config,
                                    estimate_tokens(prompt) - 1)
            except PromptBudgetExceeded:
                break
        widths = (MAX_OPTION_CONTEXT_CHARS, 300, 150, 75)
        assert MAX_OPTION_CONTEXT_CHARS == 600
        assert cuts == [truncate_at_word(long, width) for width in widths] + [None]

    def test_budget_exceeded_when_bare_prompt_too_big(self):
        with pytest.raises(PromptBudgetExceeded):
            fit_prompt(
                fixture_query(), fixture_candidates(), fixture_ontology(),
                PromptConfig(), 10,
            )

    def test_rank_fits_to_endpoint_budget(self):
        config = PromptConfig()
        bare = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(),
            PromptConfig(include_candidate_context=False),
        )

        class Tight:
            def __init__(self):
                self.prompts = []

            def complete(self, prompt):
                self.prompts.append(prompt)
                return "option 0"

        endpoint = Tight()
        result = rank(
            fixture_query(), fixture_candidates(), fixture_ontology(), config, endpoint,
            token_budget=estimate_tokens(bare),
        )
        assert result.resolved == "ORPHA:721"
        assert endpoint.prompts[0] == bare

    def test_reask_that_would_not_fit_is_not_sent(self):
        prompt = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        endpoint = ScriptedEndpoint(["mumble", "option 0"])
        result = rank(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig(),
            endpoint, token_budget=estimate_tokens(prompt),
        )
        assert result.selection == Selection(FAIL, "mumble")
        assert result.attempts == 1
        assert endpoint.prompts == [prompt]

    def test_reask_that_fits_is_sent(self):
        prompt = build_prompt(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig()
        )
        endpoint = ScriptedEndpoint(["mumble", "option 0"])
        result = rank(
            fixture_query(), fixture_candidates(), fixture_ontology(), PromptConfig(),
            endpoint, token_budget=estimate_tokens(prompt) + 20,
        )
        assert result.resolved == "ORPHA:721"
        assert result.attempts == 2
        assert all(estimate_tokens(p) <= estimate_tokens(prompt) + 20 for p in endpoint.prompts)


def test_prompt_digest_is_sha256():
    assert prompt_digest("abc") == hashlib.sha256(b"abc").hexdigest()


def test_estimate_tokens_scales_with_length():
    assert estimate_tokens("") == 1
    assert estimate_tokens("a" * 400) == 101
