"""Concept and query file parsing, validation, and round-tripping."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import unicodedata
import zlib
from unittest import mock

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
from conceptlinker import ontology as ontology_module
from conceptlinker.fileio import read_records
from conceptlinker.ontology import MAX_DESCRIPTION_CHARS
from conceptlinker.textutil import normalize_whitespace, truncate_at_word

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


# --- the columns sidecar ------------------------------------------------------

def sidecar_of(path):
    return path.with_name(f".{path.name}.columns")


def columns_of(onto: Ontology) -> tuple:
    return onto.ids, onto.names, onto.descriptions


def parse_counting(path) -> tuple[Ontology, int]:
    """The parse of ``path`` and how many record decodes it ran: 0 on a hit, 1 on a miss."""
    with mock.patch.object(ontology_module, "read_records", wraps=read_records) as spy:
        onto = parse_ontology(path, "t")
    return onto, spy.call_count


def expected_columns(rows) -> tuple:
    """What the rules make of (id, name, description) rows, worked out here."""
    descriptions = []
    for _, _, description in rows:
        if description is not None:
            description = " ".join(description.split())
            if len(description) > MAX_DESCRIPTION_CHARS:
                description = truncate_at_word(description, MAX_DESCRIPTION_CHARS)
        descriptions.append(description or None)
    return (tuple(cid.strip() for cid, _, _ in rows),
            tuple(" ".join(name.split()) for _, name, _ in rows), tuple(descriptions))


# the whitespace rule's cases, non-printables, and U+2028, which JSON allows
# raw in a string and which must not end a line, as str.splitlines would
SIDECAR_TEXT = st.lists(st.sampled_from(
    [" ", "  ", "\t", "\xa0", "\u3000", "\u2028", "\x00", "\x7f", "\xad", "\u200b",
     "a", "Z", "é", "word", "\U0001f600"]), max_size=10).map("".join)


@st.composite
def ontology_files(draw) -> tuple[bytes, tuple]:
    """The bytes of a valid ontology file and the columns it parses to."""
    lines, rows = [], []
    for i in range(draw(st.integers(1, 6))):
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        for noise in draw(st.lists(st.sampled_from(["# a comment", "", " \t", '#{"id": 1}']),
                                   max_size=2)):
            lines.append(noise + end)
        pad = draw(st.sampled_from(["", " ", "\t", "\xa0 ", "\u3000"]))
        name = draw(SIDECAR_TEXT) + f"n{i}" + draw(SIDECAR_TEXT)
        description = draw(st.one_of(
            st.none(), SIDECAR_TEXT,
            # past the cap, with word breaks or with none
            st.tuples(SIDECAR_TEXT, st.sampled_from([" lorem", "-ipsum"])).map(
                lambda parts: parts[0] + parts[1] * 400)))
        rows.append((f"{pad}C {i}{pad}", name, description))
        record = {"id": rows[-1][0], "name": name}
        if description is not None:
            record["description"] = description
        lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())) + end)
    return "".join(lines).encode("utf-8"), expected_columns(rows)


class TestColumnsSidecar:
    @settings(max_examples=150, deadline=None)
    @given(ontology_files())
    @example((b'{"id": "C1", "name": "a\xe2\x80\xa8b", "description": "x\xe2\x80\xa8 y"}\r\n',
              (("C1",), ("a b",), ("x y",))))
    def test_warm_parse_returns_the_cold_columns(self, tmp_path_factory, case):
        data, expected = case
        path = tmp_path_factory.mktemp("sidecar") / "onto.jsonl"
        path.write_bytes(data)
        cold, decodes = parse_counting(path)
        assert (columns_of(cold), decodes) == (expected, 1)
        assert sidecar_of(path).exists()
        warm, decodes = parse_counting(path)
        assert (columns_of(warm), decodes) == (expected, 0)
        assert warm.tag == "t"

    @pytest.fixture
    def cached(self, tmp_path):
        """An ontology file parsed once: its path, its columns and the sidecar's bytes."""
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [
            {"id": "C1", "name": "Aspirin", "description": "pain reliever"},
            {"id": "C2", "name": "Héparin"},
            {"id": "C3", "name": "Factor\tVIII", "description": "  "},
        ])
        onto, decodes = parse_counting(path)
        assert decodes == 1
        return path, columns_of(onto), sidecar_of(path).read_bytes()

    @staticmethod
    def forge(path, body: bytes) -> None:
        """Give the sidecar ``body`` under its own header, with the CRC-32 that fits it."""
        sidecar = sidecar_of(path)
        head = json.loads(sidecar.read_bytes().partition(b"\n")[0])
        sidecar.write_bytes(json.dumps({**head, "crc32": zlib.crc32(body)}).encode()
                            + b"\n" + body)

    def assert_reparsed(self, path, columns, sidecar: bytes) -> None:
        # a miss decodes the records and writes the sidecar back; the next parse hits
        onto, decodes = parse_counting(path)
        assert (columns_of(onto), decodes) == (columns, 1)
        assert sidecar_of(path).read_bytes() == sidecar
        onto, decodes = parse_counting(path)
        assert (columns_of(onto), decodes) == (columns, 0)

    def test_layout(self, cached):
        path, columns, sidecar = cached
        head, newline, body = sidecar.partition(b"\n")
        assert newline and b"\n" not in body
        assert json.loads(head) == {
            "source": hashlib.sha256(path.read_bytes()).hexdigest(),
            "rules": [ontology_module._RULES[0], unicodedata.unidata_version],
            "crc32": zlib.crc32(body),
        }
        assert json.loads(body) == [list(column) for column in columns]

    def test_an_edited_source_byte_is_a_miss(self, cached):
        path, columns, _ = cached
        path.write_bytes(path.read_bytes().replace(b"Aspirin", b"Aspirim"))
        onto, decodes = parse_counting(path)
        assert (onto.names[0], decodes) == ("Aspirim", 1)
        head = json.loads(sidecar_of(path).read_bytes().partition(b"\n")[0])
        assert head["source"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert parse_counting(path)[1] == 0

    @pytest.mark.parametrize("rules", [
        [2, unicodedata.unidata_version], [1, "0.0.0"]], ids=["version", "unicode"])
    def test_other_rules_are_a_miss(self, cached, monkeypatch, rules):
        path, columns, sidecar = cached
        monkeypatch.setattr(ontology_module, "_RULES", rules)
        head, _, body = sidecar.partition(b"\n")
        rewritten = json.dumps({**json.loads(head), "rules": rules}).encode() + b"\n" + body
        self.assert_reparsed(path, columns, rewritten)

    def test_a_flipped_body_byte_is_caught_by_the_crc(self, cached):
        # the body still decodes to valid columns; only the CRC tells
        path, columns, sidecar = cached
        sidecar_of(path).write_bytes(sidecar.replace(b'"Aspirin"', b'"Aspirim"'))
        self.assert_reparsed(path, columns, sidecar)

    @pytest.mark.parametrize("cut", [0, 10, "header", "body", -1])
    def test_a_truncated_sidecar_is_a_miss(self, cached, cut):
        path, columns, sidecar = cached
        if cut == "header":
            cut = sidecar.index(b"\n") + 1
        elif cut == "body":
            cut = sidecar.index(b"\n") + 20
        sidecar_of(path).write_bytes(sidecar[:cut])
        self.assert_reparsed(path, columns, sidecar)

    def test_a_header_that_is_not_json_is_a_miss(self, cached):
        path, columns, sidecar = cached
        sidecar_of(path).write_bytes(b"columns\n" + sidecar.partition(b"\n")[2])
        self.assert_reparsed(path, columns, sidecar)

    @pytest.mark.parametrize("body", [
        b'{"ids": ["C1", "C2", "C3"]}',
        b'[["C1", "C2", "C3"], ["Aspirin", "H\\u00e9parin", "Factor VIII"]]',
        b'[["C1", "C2", "C3"], ["a", "b", "c"], [null, null, null], []]',
        b'["C1 C2 C3", ["a", "b", "c"], [null, null, null]]',
        b'[["C1", 2, "C3"], ["a", "b", "c"], [null, null, null]]',
        b'[["C1", "C2", "C3"], ["a", null, "c"], [null, null, null]]',
        b'[["C1", "C2", "C3"], ["a", "b", "c"], [null, 5, null]]',
        b'[["C1", "C2", "C3"], ["a", "b", "c"], [null, ["x"], null]]',
        b'[["C1", "C2", "C3"], ["a", "b"], [null, null, null]]',
        b"[[], [], []]",
        b"[",
        b"\xff\xfe",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["object", "two columns", "four columns", "string column", "int id", "null name",
            "int description", "list description", "unequal", "empty", "not json",
            "not utf-8", "nested too deep"])
    def test_a_body_of_another_shape_or_type_is_a_miss(self, cached, body):
        path, columns, sidecar = cached
        self.forge(path, body)
        self.assert_reparsed(path, columns, sidecar)

    def test_a_body_with_a_repeated_id_is_a_miss(self, cached):
        path, columns, sidecar = cached
        self.forge(path, b'[["C1", "C2", "C1"], ["a", "b", "c"], [null, null, null]]')
        self.assert_reparsed(path, columns, sidecar)

    @pytest.mark.parametrize("text, error, message", [
        ('{"id": "C1", "name": "a"}\n{broken\n', MalformedRecord,
         "{path}: line 2: malformed record: invalid JSON "
         "(Expecting property name enclosed in double quotes)"),
        ('{"id": "C1", "name": "a"}\r\n\r{"id": " C1", "name": "b"}\r\n', DuplicateId,
         "{path}: line 3: duplicate concept id 'C1'"),
        ("# nothing\n\n", EmptyFile, "no records found in {path}"),
    ], ids=["malformed", "duplicate", "empty"])
    def test_a_parse_that_raises_writes_no_sidecar(self, tmp_path, text, error, message):
        # the errors and line numbers of a parse with no sidecar
        path = tmp_path / "onto.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(error) as exc:
            parse_ontology(path, "t")
        assert (type(exc.value), str(exc.value)) == (error, message.format(path=path))
        assert [p.name for p in tmp_path.iterdir()] == ["onto.jsonl"]

    def test_read_only_directory(self, tmp_path):
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1", "name": "a"}])
        tmp_path.chmod(0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                pytest.skip("this user may write to a read-only directory")
            for _ in range(2):
                onto, decodes = parse_counting(path)
                assert (columns_of(onto), decodes) == ((("C1",), ("a",), (None,)), 1)
            assert [p.name for p in tmp_path.iterdir()] == ["onto.jsonl"]
        finally:
            tmp_path.chmod(0o755)

    @pytest.mark.parametrize("refused", ["conceptlinker.fileio.tempfile.mkstemp",
                                         "conceptlinker.fileio.os.replace"],
                             ids=["mkstemp", "replace"])
    def test_a_refused_write_is_ignored(self, tmp_path, monkeypatch, refused):
        # what a read-only directory refuses, for a user whom chmod does not stop
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(refused, refuse)
        path = tmp_path / "onto.jsonl"
        write_jsonl(path, [{"id": "C1", "name": "a"}])
        onto, decodes = parse_counting(path)
        assert (columns_of(onto), decodes) == ((("C1",), ("a",), (None,)), 1)
        assert [p.name for p in tmp_path.iterdir()] == ["onto.jsonl"]

    def test_the_file_is_opened_once(self, cached, opened):
        path, columns, sidecar = cached
        for stale in (False, True, False):
            if stale:
                sidecar_of(path).write_bytes(sidecar[:-1])
            opened.clear()
            onto, decodes = parse_counting(path)
            assert (columns_of(onto), decodes) == (columns, int(stale))
            assert opened.count(str(path)) == 1


_opened: list[str] | None = None  # the paths opened while a test records them
_hooked = False


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _opened is not None and isinstance(args[0], (str, os.PathLike)):
        _opened.append(os.fspath(args[0]))


@pytest.fixture
def opened():
    """The paths this process opens, by the ``open`` audit event, while the test runs.

    An audit hook cannot be removed, so the one hook is added on first use.
    """
    global _opened, _hooked
    if not _hooked:
        sys.addaudithook(_record_open)
        _hooked = True
    _opened = []
    try:
        yield _opened
    finally:
        _opened = None


# The parse rules' version, and the digest of TRICKY's parsed columns. A
# change to the whitespace rule, the id trim or the description cap changes
# the digest; bump the version with the digest, or sidecars written under the
# old rules would still be read.
RULES_PIN = (1, "d91a89f24f28e2ae83e1aea6dbe4e8e81d694a1c389cdab6562acfd1ff257052")

TRICKY = (
    "# ids are trimmed, names and descriptions take the whitespace rule\r\n"
    + json.dumps({"id": "  C 1\t", "name": " \tLow\xa0\xa0platelet  count \u2028",
                  "description": "easy\x1c bruising\x85and \u3000 bleeding "}) + "\r\n"
    + "\r\n"
    + json.dumps({"id": "\xa0C2\u3000", "name": "a\x00b\u200bc\xad  d\x7f",
                  "description": " \t\u2029 "}) + "\r"
    + json.dumps({"id": "C3", "name": "alpha", "description": "alpha beta " * 200}) + "\n"
    + json.dumps({"id": "C4", "name": "x", "description": "x" * 2500}) + "\n"
    + json.dumps({"id": "C5", "name": "y", "description": "ab  " * 500 + "cd"},
                 ensure_ascii=False) + "\n"
    + json.dumps({"id": "C6", "name": "\u2002z\u205f\u202fz\u1680", "description": "é\xa0é"},
                 ensure_ascii=False) + "\n"
)


def test_rules_version_pins_the_parse_rules(tmp_path):
    path = tmp_path / "tricky.jsonl"
    path.write_text(TRICKY, encoding="utf-8", newline="")
    onto, decodes = parse_counting(path)
    assert decodes == 1
    digest = hashlib.sha256(json.dumps(columns_of(onto)).encode()).hexdigest()
    assert (ontology_module._RULES[0], digest) == RULES_PIN
