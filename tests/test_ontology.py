"""Concept and query file parsing, validation, and round-tripping."""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conceptlinker import (
    Ontology,
    Query,
    parse_ontology,
    parse_queries,
)
from conceptlinker.errors import (
    DuplicateId,
    EmptyFile,
    EmptyMention,
    MalformedRecord,
    MissingField,
    UnknownId,
)
from conceptlinker.ontology import MAX_DESCRIPTION_CHARS
from conceptlinker.textutil import normalize_whitespace

from .conftest import (
    Concept,
    concepts_of,
    ontology_from,
    queries_for,
    synthetic_ontology,
    write_jsonl,
    write_ontology,
    write_queries,
)

# every character str.split() splits on, taken from the running Unicode version
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# non-printable but not whitespace: the rule keeps them as they are
NON_PRINTABLE = ["\x00", "\x7f", "\u00ad", "\u200b", "\u2060", "\ufeff"]


class TestParseOntology:
    def test_basic(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [
            {"id": "C1", "name": "Aspirin", "description": "pain reliever"},
            {"id": "C2", "name": "Heparin"},
        ])
        onto = parse_ontology(path, "demo")
        assert len(onto) == 2
        assert onto.descriptions == ("pain reliever", None)
        assert onto.tag == "demo"

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": f"C{i}", "name": f"name {i}"} for i in (3, 1, 2)])
        assert parse_ontology(path, "t").ids == ("C3", "C1", "C2")

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        path.write_text(
            '# concepts\n\n{"id": "C1", "name": "Aspirin"}\n\n', encoding="utf-8"
        )
        assert len(parse_ontology(path, "t")) == 1

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [
            {"id": "C1", "name": "a"}, {"id": "C2", "name": "b"}, {"id": "C1", "name": "c"},
        ])
        with pytest.raises(DuplicateId) as exc:
            parse_ontology(path, "t")
        assert exc.value.concept_id == "C1"
        assert exc.value.line == 3

    def test_missing_name(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1"}])
        with pytest.raises(MissingField) as exc:
            parse_ontology(path, "t")
        assert exc.value.field == "name"

    def test_blank_name_is_missing(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1", "name": "   "}])
        with pytest.raises(MissingField):
            parse_ontology(path, "t")

    @pytest.mark.parametrize("record, key", [
        ({"id": None, "name": "a"}, "id"),
        ({"id": 7, "name": "a"}, "id"),
        ({"id": "C2", "name": None}, "name"),
        ({"id": "C2", "name": ["a"]}, "name"),
        ({"id": "C2", "name": "a", "description": 5}, "description"),
    ])
    def test_field_of_another_type_names_its_line(self, tmp_path, record, key):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1", "name": "a"}, record])
        with pytest.raises(MalformedRecord) as exc:
            parse_ontology(path, "t")
        assert not isinstance(exc.value, MissingField)
        assert str(exc.value) == f"{path}: line 2: malformed record: field {key!r} is not a string"

    def test_missing_field_is_a_malformed_record(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"name": "a"}])
        with pytest.raises(MalformedRecord) as exc:
            parse_ontology(path, "t")
        assert str(exc.value) == (f"{path}: line 1: malformed record: "
                                  "missing or empty required field 'id'")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        path.write_text('{"id": "C1", "name": "a"}\n{broken\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            parse_ontology(path, "t")
        assert exc.value.line == 2

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        path.write_text('["not", "an", "object"]\n', encoding="utf-8")
        with pytest.raises(MalformedRecord):
            parse_ontology(path, "t")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            parse_ontology(path, "t")

    def test_id_keeps_internal_whitespace(self, tmp_path):
        # ids are opaque strings; only surrounding whitespace is trimmed
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "  odd id  ", "name": "x"}])
        onto = parse_ontology(path, "t")
        assert onto.ids == ("odd id",) and onto.position("odd id") == 0

    def test_name_whitespace_collapsed(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1", "name": "  two\t spaces \n here "}])
        assert parse_ontology(path, "t").names == ("two spaces here",)

    def test_description_truncated_at_word(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        long = "alpha beta " * 200
        write_jsonl(path, [{"id": "C1", "name": "x", "description": long}])
        # the cut at MAX_DESCRIPTION_CHARS falls inside a word, which is dropped
        assert MAX_DESCRIPTION_CHARS == 2000
        assert parse_ontology(path, "t").descriptions == ("alpha beta " * 181 + "alpha",)

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1", "name": "x", "synonyms": "ASA", "extra": [1]}])
        onto = parse_ontology(path, "t")
        assert (onto.tag, concepts_of(onto)) == ("t", [Concept(id="C1", name="x")])


class TestOntologyContainer:
    def test_lookup_and_membership(self):
        onto = ontology_from("t", [Concept(id="C1", name="a"), Concept(id="C2", name="b")])
        assert "C1" in onto and "C9" not in onto
        assert onto.names[onto.position("C2")] == "b"
        assert onto.ids[onto.position("C1")] == "C1"

    def test_unknown_id(self):
        onto = ontology_from("t", [Concept(id="C1", name="a")])
        with pytest.raises(UnknownId):
            onto.position("missing")

    def test_programmatic_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ontology_from("t", [Concept(id="C1", name="a"), Concept(id="C1", name="b")])

    def test_columns(self):
        onto = Ontology("t", ["C1", "C2"], ["a", "b"], ["about a", None])
        assert onto.ids == ("C1", "C2")
        assert onto.names == ("a", "b")
        assert onto.descriptions == ("about a", None)
        assert onto.position("C2") == 1
        assert (onto.tag, len(onto)) == ("t", 2)
        with pytest.raises(UnknownId):
            onto.position("C3")

    @pytest.mark.parametrize("names, descriptions", [
        (["a"], [None, None]), (["a", "b", "c"], [None, None]), (["a", "b"], []),
    ])
    def test_column_lengths_must_agree(self, names, descriptions):
        with pytest.raises(ValueError, match="column lengths differ"):
            Ontology("t", ["C1", "C2"], names, descriptions)

    def test_constructor_names_duplicates(self):
        with pytest.raises(ValueError, match=r"duplicate concept ids: \['C1', 'C2'\]"):
            Ontology("t", ["C2", "C1", "C2", "C3", "C1"], list("abcde"), [None] * 5)


class TestParseQueries:
    def test_basic(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [
            {"id": "q1", "mention": "aspirin", "context": "took aspirin", "gold": "C1"},
            {"id": "q2", "mention": "heparin"},
        ])
        queries = parse_queries(path)
        assert [q.id for q in queries] == ["q1", "q2"]
        assert queries[0] == Query("q1", "aspirin", "took aspirin")
        assert queries[1] == Query("q2", "heparin")

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text("", encoding="utf-8")
        assert parse_queries(path) == []

    def test_empty_mention_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"id": "q1", "mention": "  "}])
        with pytest.raises(EmptyMention) as exc:
            parse_queries(path)
        assert exc.value.line == 1

    def test_missing_mention(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"id": "q1"}])
        with pytest.raises(MissingField):
            parse_queries(path)

    @pytest.mark.parametrize("record, key", [
        ({"id": None, "mention": "x"}, "id"),
        ({"id": 1, "mention": "x"}, "id"),
        ({"id": "q1", "mention": None}, "mention"),
        ({"id": "q1", "mention": "x", "context": ["c"]}, "context"),
    ])
    def test_field_of_another_type_names_its_line(self, tmp_path, record, key):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [record])
        with pytest.raises(MalformedRecord,
                           match=f"line 1: malformed record: field '{key}' is not a string"):
            parse_queries(path)

    def test_blank_id_is_missing(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"id": " ", "mention": "x"}])
        with pytest.raises(MissingField) as exc:
            parse_queries(path)
        assert (exc.value.field, exc.value.line) == ("id", 1)

    def test_repeated_id_names_its_line(self, tmp_path):
        # ids are trimmed before they are compared
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"id": "q1", "mention": "x"}, {"id": "q2", "mention": "y"},
                           {"id": " q1", "mention": "z"}])
        with pytest.raises(MalformedRecord, match="line 3: .*duplicate query id 'q1'") as exc:
            parse_queries(path)
        assert exc.value.line == 3

    def test_blank_context_dropped(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"id": "q1", "mention": "x", "context": "   "}])
        assert parse_queries(path)[0].context is None

    def test_gold_field_ignored(self, tmp_path):
        # gold ids come from the gold file; a query line's gold is never read
        path = tmp_path / "q.jsonl"
        write_jsonl(path, [{"id": "q1", "mention": "x", "gold": " "},
                           {"id": "q2", "mention": "y", "gold": 7}])
        assert parse_queries(path) == [Query("q1", "x"), Query("q2", "y")]


class TestWhitespaceRule:
    def test_space_is_the_only_printable_whitespace(self):
        # why normalize_whitespace may return printable text with no doubled
        # or edge space untouched
        assert [c for c in WHITESPACE if c.isprintable()] == [" "]

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(st.sampled_from(WHITESPACE + NON_PRINTABLE + list("abZé"))),
        st.text(st.sampled_from(WHITESPACE)),
        # printable text, where only doubled and edge spaces decide the result
        st.text(st.sampled_from(" abé")),
    ))
    @example(text="")
    def test_is_split_then_join(self, text):
        assert normalize_whitespace(text) == " ".join(text.split())

    @pytest.mark.parametrize("text", [
        "low platelet count",
        "café au lait spots, P2Y12 (ADP receptor) defect",
        " ".join(["inherited platelet aggregation failure"] * 30),
    ], ids=["words", "non-ascii", "long"])
    def test_normal_text_is_returned_as_is(self, text):
        assert normalize_whitespace(text) is text

    def test_files_parse_as_their_single_spaced_twins(self, tmp_path):
        def twin(record):
            # ids are only trimmed; every other text field takes the whitespace rule
            return {key: f" \t{value}\u3000" if key == "id"
                    else "\u3000\t " + value.replace(" ", " \t\n\u00a0  \r") + "\n  "
                    for key, value in record.items()}

        concepts = [
            {"id": "C  1", "name": "low platelet count",
             "description": "easy bruising and prolonged bleeding"},
            {"id": "C2", "name": "Heparin", "description": ""},
            {"id": "C3", "name": "Factor VIII deficiency"},
        ]
        queries = [
            {"id": "q  1", "mention": "platelet count",
             "context": "a child with low platelet count"},
            {"id": "q2", "mention": "heparin", "context": ""},
            {"id": "q3", "mention": "factor VIII"},
        ]
        for stem, records in (("onto", concepts), ("q", queries)):
            write_jsonl(tmp_path / f"{stem}.jsonl", records)
            write_jsonl(tmp_path / f"{stem}-spaced.jsonl", map(twin, records))

        onto = parse_ontology(tmp_path / "onto.jsonl", "t")
        spaced = parse_ontology(tmp_path / "onto-spaced.jsonl", "t")
        assert (spaced.ids, spaced.names, spaced.descriptions) == (
            onto.ids, onto.names, onto.descriptions)
        assert onto.ids == ("C  1", "C2", "C3")
        assert onto.descriptions == ("easy bruising and prolonged bleeding", None, None)
        parsed = parse_queries(tmp_path / "q.jsonl")
        assert parse_queries(tmp_path / "q-spaced.jsonl") == parsed == [
            Query("q  1", "platelet count", "a child with low platelet count"),
            Query("q2", "heparin"),
            Query("q3", "factor VIII"),
        ]


class TestRoundTrip:
    def test_ontology_round_trip(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 40)
        path = tmp_path / "onto.jsonl"
        write_ontology(path, onto)
        again = parse_ontology(path, onto.tag)
        assert concepts_of(again) == concepts_of(onto)

    def test_queries_round_trip(self, tmp_path, rng):
        onto = synthetic_ontology(rng, 20)
        queries, _ = queries_for(onto, rng, 15)
        path = tmp_path / "q.jsonl"
        write_queries(path, queries)
        assert parse_queries(path) == queries

    @settings(max_examples=40, deadline=None)
    @given(
        names=st.lists(
            st.text(st.characters(codec="utf-8", exclude_categories=["Cs", "Zl", "Zp"]),
                    min_size=1, max_size=30).filter(lambda t: t.split()),
            min_size=1, max_size=8, unique=True,
        )
    )
    def test_any_printable_names_round_trip(self, tmp_path_factory, names):
        tmp = tmp_path_factory.mktemp("ontorr")
        concepts = [
            Concept(id=f"C{i}", name=" ".join(name.split()))
            for i, name in enumerate(names)
        ]
        path = tmp / "o.jsonl"
        write_ontology(path, ontology_from("t", concepts))
        assert list(parse_ontology(path, "t").names) == [c.name for c in concepts]
