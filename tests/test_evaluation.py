"""Metrics, result files, gold handling, and the ablation driver."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from conceptlinker import (
    AblationArm,
    Candidate,
    GoldPair,
    KeywordMockEndpoint,
    LinkResult,
    MetricsReport,
    Prediction,
    PromptConfig,
    ScriptedEndpoint,
    Selection,
    SelectionKind,
    TranscriptStore,
    Variant,
    build_memory,
    f1_from,
    parse_gold,
    parse_grid,
    parse_predictions,
    parse_retrievals,
    render_report,
    retrieval_digest,
    run_ablation,
    score_predictions,
    score_retrievals,
    write_predictions,
    write_report,
    write_retrievals,
)
from conceptlinker.errors import (
    EmptyFile,
    MalformedRecord,
    MissingField,
    MissingPrediction,
    MissingRetrieval,
)

from .conftest import local_provider, queries_for, synthetic_ontology, write_gold
from .oracles import f1_ref, hits_ref, retrieval_digest_ref, scores_ref


def predict(query_id: str, resolved: str | None) -> Prediction:
    return Prediction(query_id, resolved)


def linked(query_id: str, resolved: str | None) -> LinkResult:
    if resolved is None:
        selection = Selection(SelectionKind.NONE_OF_THE_ABOVE, "None")
    else:
        selection = Selection(SelectionKind.OPTION, "option 0", index=0)
    return LinkResult(
        query_id=query_id,
        selection=selection,
        resolved=resolved,
        prompt_digest="0" * 64,
        attempts=1,
        latency=0.0,
    )


def accuracy(results, gold: dict[str, str]) -> float:
    """The accuracy ``score_predictions`` reports against gold given as query id -> target."""
    return score_predictions(results, [GoldPair(q, t) for q, t in gold.items()]).accuracy


class TestAccuracy:
    def test_all_correct(self):
        gold = {f"q{i}": f"C{i}" for i in range(10)}
        results = [predict(q, t) for q, t in gold.items()]
        assert accuracy(results, gold) == 1.0

    def test_none_counts_as_wrong(self):
        gold = {f"q{i}": f"C{i}" for i in range(10)}
        results = [predict(q, t) for q, t in gold.items()]
        results[3] = predict("q3", None)
        assert accuracy(results, gold) == pytest.approx(0.9)

    def test_wrong_concept_counts_as_wrong(self):
        gold = {"q0": "C0", "q1": "C1"}
        results = [predict("q0", "C0"), predict("q1", "C9")]
        assert accuracy(results, gold) == pytest.approx(0.5)

    def test_missing_prediction(self):
        with pytest.raises(MissingPrediction):
            accuracy([predict("q0", "C0")], {"q0": "C0", "q1": "C1"})

    def test_empty_gold(self):
        with pytest.raises(ValueError):
            accuracy([], {})

    def test_extra_predictions_ignored(self):
        gold = {"q0": "C0"}
        results = [predict("q0", "C0"), predict("q9", "C9")]
        assert accuracy(results, gold) == 1.0


class TestPrf1:
    def frozen(self):
        # 5 gold queries; 4 resolved, 3 of them correctly, 1 abstention
        gold = [GoldPair(f"q{i}", f"C{i}") for i in range(5)]
        results = [
            predict("q0", "C0"),
            predict("q1", "C1"),
            predict("q2", "C2"),
            predict("q3", "C9"),
            predict("q4", None),
        ]
        return results, gold

    @staticmethod
    def prf1(results, gold):
        report = score_predictions(results, gold)
        return report.precision, report.recall, report.f1

    def test_frozen_fixture(self):
        precision, recall, f1 = self.prf1(*self.frozen())
        assert precision == pytest.approx(0.75)
        assert recall == pytest.approx(0.6)
        assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_score_predictions_counts(self):
        report = score_predictions(*self.frozen())
        assert report.n_queries == 5
        assert report.n_predicted == 4
        assert report.n_correct == 3
        assert report.n_gold == 5
        assert report.accuracy == pytest.approx(0.6)

    def test_all_abstain(self):
        gold = [GoldPair("q0", "C0")]
        precision, recall, f1 = self.prf1([predict("q0", None)], gold)
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        gold = [GoldPair(f"q{i}", f"C{i}") for i in range(4)]
        results = [predict(p.source_id, p.target_id) for p in gold]
        assert self.prf1(results, gold) == (1.0, 1.0, 1.0)


class TestF1:
    @pytest.mark.parametrize("p,r,expected", [
        (0.906, 0.859, 0.882),
        (0.914, 0.7495, 0.824),
    ])
    def test_published_operating_points(self, p, r, expected):
        assert f1_from(p, r) == pytest.approx(expected, abs=1e-3)

    def test_zero(self):
        assert f1_from(0.0, 0.0) == 0.0

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_invariants(self, p, r):
        f1 = f1_from(p, r)
        assert 0.0 <= f1 <= 1.0
        assert f1 == f1_from(r, p)
        assert f1 == pytest.approx(f1_ref(p, r))
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestGoldMap:
    def test_conflict(self):
        with pytest.raises(ValueError):
            score_predictions([predict("q0", "C0")], [GoldPair("q0", "C0"), GoldPair("q0", "C1")])

    def test_agreeing_duplicate_ok(self):
        pairs = [GoldPair("q0", "C0"), GoldPair("q0", "C0")]
        report = score_predictions([predict("q0", "C0")], pairs)
        assert (report.n_gold, report.accuracy, report.recall) == (1, 1.0, 1.0)


class TestHitsAtK:
    def test_rank_three(self):
        retrievals = {"q0": ["C5", "C9", "C0", "C2"]}
        hits = score_retrievals(retrievals, {"q0": "C0"}, [1, 3, 5]).hits_at
        assert hits == {1: 0.0, 3: 1.0, 5: 1.0}

    def test_monotone_and_matches_oracle(self, rng):
        ontology = synthetic_ontology(rng, 40)
        ids = [c.id for c in ontology]
        gold = {}
        retrievals = {}
        for i in range(30):
            query_id = f"q{i}"
            ranked = rng.sample(ids, 15)
            gold[query_id] = rng.choice(ids)
            retrievals[query_id] = ranked
        ks = [1, 3, 5, 10, 15]
        report = score_retrievals(retrievals, gold, ks)
        hits = report.hits_at
        values = [hits[k] for k in ks]
        assert values == sorted(values)
        for k in ks:
            assert hits[k] == pytest.approx(hits_ref(retrievals, gold, k))
        assert report.n_correct == sum(gold[q] in retrievals[q][:15] for q in gold)

    def test_missing_retrieval(self):
        with pytest.raises(MissingRetrieval):
            score_retrievals({}, {"q0": "C0"}, [1])

    @pytest.mark.parametrize("ks", [[], [0, 1], [5, 1], [-1]])
    def test_ks_validation(self, ks):
        with pytest.raises(ValueError):
            score_retrievals({"q0": ["C0"]}, {"q0": "C0"}, ks)

    def test_empty_gold(self):
        with pytest.raises(ValueError):
            score_retrievals({"q0": ["C0"]}, {}, [1])

    def test_score_retrievals_report(self):
        retrievals = {"q0": ["C0", "C1"], "q1": ["C2", "C1"]}
        report = score_retrievals(retrievals, {"q0": "C0", "q1": "C1"}, [1, 2])
        assert report.hits_at == {1: 0.5, 2: 1.0}
        assert report.n_gold == 2
        assert report.n_correct == 2
        assert report.accuracy is None


@st.composite
def scored_runs(draw):
    """Results and gold with distinct ids on each side: picks that are right,
    wrong or abstentions, and results for queries outside gold, in any order."""
    concepts = [f"C{i}" for i in range(8)]
    gold = [GoldPair(f"q{i}", draw(st.sampled_from(concepts)))
            for i in range(draw(st.integers(1, 10)))]
    picks = [(pair.source_id, draw(st.one_of(st.none(), st.just(pair.target_id),
                                             st.sampled_from(concepts))))
             for pair in gold]
    picks += [(f"x{i}", draw(st.one_of(st.none(), st.sampled_from(concepts))))
              for i in range(draw(st.integers(0, 4)))]
    results = [draw(st.sampled_from([predict, linked]))(query_id, resolved)
               for query_id, resolved in picks]
    return draw(st.permutations(results)), draw(st.permutations(gold))


class TestOnePassScoring:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scored_runs())
    def test_predictions_match_oracle(self, run):
        results, gold = run
        assert dataclasses.asdict(score_predictions(results, gold)) == scores_ref(results, gold)

    def test_repeated_result_id_raises(self):
        with pytest.raises(ValueError, match="'q0'"):
            score_predictions([predict("q0", "C0")] * 2, [GoldPair("q0", "C0")])


class TestMetricsReport:
    def test_to_dict_rounds(self):
        report = MetricsReport(
            accuracy=1 / 3, precision=2 / 3, recall=0.5, f1=f1_from(2 / 3, 0.5),
            hits_at={1: 1 / 3}, n_queries=3, n_predicted=2, n_correct=1, n_gold=3,
        )
        data = report.to_dict()
        assert data["accuracy"] == 0.3333
        assert data["precision"] == 0.6667
        assert data["hits_at"] == {"1": 0.3333}
        assert data["counts"]["n_correct"] == 1

    def test_hits_keys_must_ascend(self):
        with pytest.raises(ValueError):
            MetricsReport(hits_at={5: 0.5, 1: 0.2})

    def test_hits_values_must_not_decrease(self):
        with pytest.raises(ValueError):
            MetricsReport(hits_at={1: 0.8, 5: 0.2})


class TestGoldFiles:
    def test_round_trip(self, tmp_path):
        pairs = [GoldPair("q0", "C0"), GoldPair("q1", "C1")]
        path = tmp_path / "gold.jsonl"
        write_gold(path, pairs)
        assert parse_gold(path) == pairs

    def test_composite_targets_skipped(self, tmp_path, caplog):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"source": "q0", "target": "C0"}\n'
            '{"source": "q1", "target": "C1|C2"}\n'
        )
        with caplog.at_level("WARNING"):
            pairs = parse_gold(path)
        assert pairs == [GoldPair("q0", "C0")]
        assert "skipped 1" in caplog.text

    def test_conflicting_duplicate_skipped(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"source": "q0", "target": "C0"}\n'
            '{"source": "q0", "target": "C9"}\n'
        )
        assert parse_gold(path) == [GoldPair("q0", "C0")]

    def test_agreeing_duplicate_collapsed(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"source": "q0", "target": "C0"}\n' * 2)
        assert parse_gold(path) == [GoldPair("q0", "C0")]

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('# header\n\n{"source": "q0", "target": "C0"}\n')
        assert len(parse_gold(path)) == 1

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2]",
        '{"source": "q0"}',
        '{"source": "", "target": "C0"}',
    ])
    def test_malformed(self, tmp_path, line):
        path = tmp_path / "gold.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedRecord):
            parse_gold(path)

    @pytest.mark.parametrize("line, field", [('{"target": "C0"}', "source"),
                                             ('{"source": "q0"}', "target")])
    def test_missing_id_is_a_missing_field(self, tmp_path, line, field):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"source": "q9", "target": "C9"}\n' + line + "\n")
        with pytest.raises(MissingField) as exc:
            parse_gold(path)
        assert (exc.value.field, exc.value.line) == (field, 2)

    @pytest.mark.parametrize("line, field", [
        ('{"source": null, "target": "C0"}', "source"),
        ('{"source": 7, "target": "C0"}', "source"),
        ('{"source": "q0", "target": ["C0"]}', "target"),
    ])
    def test_id_that_is_not_a_string_names_its_line(self, tmp_path, line, field):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"source": "q9", "target": "C9"}\n' + line + "\n")
        with pytest.raises(MalformedRecord) as exc:
            parse_gold(path)
        assert exc.value.line == 2
        assert f"field {field!r} is not a string" in str(exc.value)


class TestPredictionFiles:
    def slates(self):
        return [
            [Candidate("C0", 0.9, Variant.NAME_ONLY), Candidate("C1", 0.5, Variant.NAME_ONLY)],
            [Candidate("C2", 0.7, Variant.NAME_WITH_CONTEXT)],
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        results = [linked("q0", "C0"), linked("q1", None)]
        write_predictions(path, results, self.slates())
        reloaded = parse_predictions(path)
        assert reloaded == [Prediction("q0", "C0"), Prediction("q1", None)]

    @pytest.mark.parametrize("query_id, concept_id", [
        ("q\t0", "C0"), ("q\n0", "C0"), ("q0", "NONE"), ("", "C\t0"),
    ])
    def test_any_string_is_an_id(self, tmp_path, query_id, concept_id):
        # tabs, line breaks and NONE included
        path = tmp_path / "pred.jsonl"
        results = [linked(query_id, concept_id), linked("q1", None)]
        write_predictions(path, results, self.slates())
        assert len(path.read_text().splitlines()) == 2
        reloaded = parse_predictions(path)
        assert reloaded == [Prediction(query_id, concept_id), Prediction("q1", None)]

    def test_columns(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_predictions(path, [linked("q0", "C0"), linked("q1", None)], self.slates())
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"query_id": "q0", "resolved": "C0", "score": 0.9, "kind": "option"}
        assert rows[1] == {"query_id": "q1", "resolved": None, "score": 0.7, "kind": "none"}

    def test_score_is_rounded_to_six_places(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        slate = [Candidate("C0", 0.123456789, Variant.NAME_ONLY)]
        write_predictions(path, [linked("q0", "C0")], [slate])
        assert json.loads(path.read_text())["score"] == 0.123457

    def test_empty_slate_scores_zero(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_predictions(path, [linked("q0", None)], [[]])
        assert json.loads(path.read_text())["score"] == 0.0

    @pytest.mark.parametrize("slates", [[[]], [[], [], []]])
    def test_results_and_slates_of_different_lengths_rejected(self, tmp_path, slates):
        # zip would write the shorter list and drop the rest silently
        path = tmp_path / "pred.jsonl"
        with pytest.raises(ValueError):
            write_predictions(path, [linked("q0", None), linked("q1", None)], slates)
        assert not path.exists()

    @pytest.mark.parametrize("line", [
        '{"query_id": "q0", "resolved": "C0", "kind": "option"}',
        '{"query_id": "q0", "resolved": "C0", "score": "not-a-float", "kind": "option"}',
        '{"query_id": "q0", "resolved": "C0", "score": true, "kind": "option"}',
        '{"query_id": "q0", "resolved": "C0", "score": 0.5, "kind": "mystery"}',
        '{"query_id": "q0", "resolved": "C0", "score": 0.5, "kind": "none"}',
        '{"query_id": "q0", "resolved": null, "score": 0.5, "kind": "option"}',
        '{"query_id": "q0", "score": 0.5, "kind": "option"}',
        '{"query_id": "q0", "resolved": 7, "score": 0.5, "kind": "option"}',
        '{"query_id": 0, "resolved": "C0", "score": 0.5, "kind": "option"}',
        '{"resolved": "C0", "score": 0.5, "kind": "option"}',
        '{"query_id": "q0", "resolved": "C0", "score": 0.5}',
        '["q0", "C0", 0.5, "option"]',
        # rows of the old tab-separated format, well formed or not, are refused
        "q0\tC0\t0.500000\toption",
        "q0\tC0\t0.5",
        "q0\tC0\tnot-a-float\toption",
        "q0\tC0\t0.5\tmystery",
        "q0\tC0\t0.5\tnone",
    ])
    def test_malformed(self, tmp_path, line):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"query_id": "q9", "resolved": null, "score": 0.1, "kind": "none"}\n'
                        + line + "\n")
        with pytest.raises(MalformedRecord) as exc:
            parse_predictions(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("line, want", [
        # NONE is a concept id like any other
        ('{"query_id": "q0", "resolved": "NONE", "score": 0.5, "kind": "option"}',
         Prediction("q0", "NONE")),
        ('{"query_id": "q0", "resolved": "C0", "score": 1, "kind": "option"}',
         Prediction("q0", "C0")),
        ('{"query_id": "q0", "score": 0.5, "kind": "parse_failure"}', Prediction("q0", None)),
    ])
    def test_valid_rows(self, tmp_path, line, want):
        path = tmp_path / "pred.jsonl"
        path.write_text(line + "\n")
        assert parse_predictions(path) == [want]

    def test_repeated_query_id_names_its_line(self, tmp_path):
        # two rows for one query would count twice towards recall and F1
        path = tmp_path / "pred.jsonl"
        row = {"query_id": "q1", "resolved": "RD:0001", "score": 0.5, "kind": "option"}
        path.write_text((json.dumps(row) + "\n") * 2)
        with pytest.raises(MalformedRecord, match="duplicate query id 'q1'") as exc:
            parse_predictions(path)
        assert exc.value.line == 2


class TestRetrievalFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ret.jsonl"
        rows = [
            ("q0", [Candidate("C0", 0.9, Variant.NAME_ONLY)]),
            ("q1", [Candidate("C1", 0.8, Variant.NAME_ONLY),
                    Candidate("C2", 0.2, Variant.NAME_WITH_CONTEXT)]),
        ]
        write_retrievals(path, rows)
        assert parse_retrievals(path) == {"q0": ["C0"], "q1": ["C1", "C2"]}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ret.jsonl"
        row = json.dumps({"query_id": "q0", "candidates": [{"cid": "C0", "score": 0.5}]})
        path.write_text("# written by retrieve\n\n" + row + "\n")
        assert parse_retrievals(path) == {"q0": ["C0"]}

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "ret.jsonl"
        row = json.dumps({"query_id": "q0", "candidates": []})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(MalformedRecord):
            parse_retrievals(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "ret.jsonl"
        path.write_text('{"query_id": "q0"}\n')
        with pytest.raises(MalformedRecord):
            parse_retrievals(path)

    @pytest.mark.parametrize("record, problem", [
        ({"query_id": ["q1"], "candidates": []}, "field 'query_id' is not a string"),
        ({"query_id": {"id": "q1"}, "candidates": []}, "field 'query_id' is not a string"),
        ({"query_id": 1, "candidates": []}, "field 'query_id' is not a string"),
        ({"query_id": "q1", "candidates": [{"cid": 7, "score": 0.5}]},
         "field 'cid' is not a string"),
        ({"query_id": "q1", "candidates": {"cid": "C0"}}, "field 'candidates' is not a list"),
        ({"query_id": "q1", "candidates": ["C0"]}, "record is not a JSON object"),
    ])
    def test_field_of_another_type_names_its_line(self, tmp_path, record, problem):
        path = tmp_path / "ret.jsonl"
        good = {"query_id": "q0", "candidates": [{"cid": "C0", "score": 0.5}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            parse_retrievals(path)
        assert exc.value.line == 2
        assert problem in str(exc.value)


class TestGridFiles:
    def test_labels_and_fields(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        path.write_text(
            '{"label": "both"}\n'
            '{"label": "no context", "include_source_context": false, '
            '"include_candidate_context": false}\n'
            '{"include_candidate_context": false}\n'
        )
        arms = parse_grid(path)
        assert [a.label for a in arms] == ["both", "no context", "arm-2"]
        assert arms[0].config.include_source_context is True
        assert arms[1].config.include_candidate_context is False
        assert arms[2].config.include_source_context is True
        assert arms[2].config.include_candidate_context is False

    @pytest.mark.parametrize("one_shot, problem", [
        ({"query": 5, "options": "0: A", "answer": "option 0"}, "field 'query' is not a string"),
        ({"query": "q", "options": ["0: A"], "answer": "option 0"},
         "field 'options' is not a string"),
        ({"query": "q", "options": "0: A", "answer": None}, "field 'answer' is not a string"),
        ("q", "record is not a JSON object"),
    ])
    def test_one_shot_fields_must_be_strings(self, tmp_path, one_shot, problem):
        path = tmp_path / "grid.jsonl"
        path.write_text(json.dumps({"label": "primed", "one_shot": one_shot}) + "\n")
        with pytest.raises(MalformedRecord, match=problem) as exc:
            parse_grid(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("label", [None, ["a"], 3, True])
    def test_label_must_be_a_string(self, tmp_path, label):
        path = tmp_path / "grid.jsonl"
        path.write_text('{"label": "both"}\n' + json.dumps({"label": label}) + "\n")
        with pytest.raises(MalformedRecord, match="field 'label' is not a string") as exc:
            parse_grid(path)
        assert exc.value.line == 2

    def test_one_shot_object(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        path.write_text(json.dumps({
            "label": "primed",
            "one_shot": {"query": "q", "options": "0: A", "answer": "option 0"},
        }) + "\n")
        arms = parse_grid(path)
        assert arms[0].config.one_shot.answer == "option 0"

    @pytest.mark.parametrize("line", [
        '{"no_such_field": 1}',
        '{"max_option_context_chars": 10}',
        '{"one_shot": {"query": "q"}}',
        "not json",
        "[1]",
        '{"none_label": 5}',
        '{"include_source_context": "no"}',
    ])
    def test_malformed(self, tmp_path, line):
        path = tmp_path / "grid.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedRecord):
            parse_grid(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        path.write_text("# only a comment\n")
        with pytest.raises(EmptyFile):
            parse_grid(path)


class TestRetrievalDigest:
    def test_stable_and_sensitive(self):
        slate = [[Candidate("C0", 0.5, Variant.NAME_ONLY)]]
        other = [[Candidate("C0", 0.6, Variant.NAME_ONLY)]]
        assert retrieval_digest(slate) == retrieval_digest(slate)
        assert retrieval_digest(slate) != retrieval_digest(other)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.tuples(
        st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600'),
                          st.characters())),
        st.one_of(st.just(-0.0), st.just(-1e-9), st.floats(-1.0, 1.0),
                  st.floats(allow_nan=True, allow_infinity=True)),
    ), max_size=4), max_size=4))
    def test_matches_the_json_dumps_text(self, slates):
        candidates = [[Candidate(cid, score, Variant.NAME_ONLY) for cid, score in slate]
                      for slate in slates]
        assert retrieval_digest(candidates) == retrieval_digest_ref(candidates)


class TestRunAblation:
    def setup_run(self, rng, n_queries=6):
        ontology = synthetic_ontology(rng, 30, described_fraction=1.0)
        queries, gold = queries_for(ontology, rng, n_queries)
        provider = local_provider()
        memory = build_memory(ontology, provider)
        gold_pairs = [GoldPair(q, t) for q, t in gold.items()]
        return ontology, queries, gold_pairs, provider, memory

    def test_rows_in_grid_order_sharing_retrieval(self, rng):
        ontology, queries, gold, provider, memory = self.setup_run(rng)
        grid = [
            AblationArm("both", PromptConfig()),
            AblationArm("no candidate context", PromptConfig(include_candidate_context=False)),
            AblationArm("arm-2", PromptConfig(include_source_context=False)),
        ]
        rows = run_ablation(
            queries, gold, ontology, memory, provider, KeywordMockEndpoint(),
            grid, k=5,
        )
        assert [r.label for r in rows] == ["both", "no candidate context", "arm-2"]
        assert len({r.retrieval_digest for r in rows}) == 1
        assert all(r.report is not None and r.error is None for r in rows)

    def test_failed_row_is_isolated(self, rng, tmp_path):
        ontology, queries, gold, provider, memory = self.setup_run(rng, n_queries=3)
        fine = AblationArm("fine", PromptConfig())
        broken = AblationArm("broken", PromptConfig(include_candidate_context=False))

        # record transcripts for the "fine" arm only; replaying then starves
        # the "broken" arm, whose prompts were never seen
        path = tmp_path / "partial.jsonl"
        run_ablation(
            queries, gold, ontology, memory, provider,
            TranscriptStore(path, KeywordMockEndpoint()), [fine], k=5,
        )

        rows = run_ablation(
            queries, gold, ontology, memory, provider, TranscriptStore(path),
            [broken, fine], k=5,
        )
        assert [r.label for r in rows] == ["broken", "fine"]
        assert rows[0].report is None and "no recorded response" in rows[0].error
        assert rows[1].report is not None and rows[1].error is None

    def test_empty_grid(self, rng):
        ontology, queries, gold, provider, memory = self.setup_run(rng, n_queries=2)
        with pytest.raises(ValueError):
            run_ablation(
                queries, gold, ontology, memory, provider, KeywordMockEndpoint(),
                [], k=5,
            )


class TestReports:
    def report_dict(self):
        report = MetricsReport(
            accuracy=0.9, precision=0.95, recall=0.85, f1=f1_from(0.95, 0.85),
            n_queries=20, n_predicted=18, n_correct=17, n_gold=20,
        )
        return {
            "rows": [
                {"label": "baseline", "metrics": report.to_dict(), "error": None},
                {"label": "broken", "metrics": None, "error": "transcript miss"},
            ]
        }

    def test_render_alignment_and_placeholders(self):
        text = render_report(self.report_dict())
        lines = text.splitlines()
        assert lines[0].split()[:5] == ["row", "acc", "P", "R", "F1"]
        assert "0.9000" in lines[1]
        assert "-" in lines[2]
        assert "transcript miss" in lines[2]

    def test_render_includes_hits_columns(self):
        report = score_retrievals({"q0": ["C0"]}, {"q0": "C0"}, [1, 5])
        text = render_report(
            {"rows": [{"label": "retrieval", "metrics": report.to_dict()}]}
        )
        assert "hits@1" in text and "hits@5" in text

    def test_write_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(a, self.report_dict())
        write_report(b, self.report_dict())
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["rows"][0]["label"] == "baseline"
