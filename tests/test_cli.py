"""Command-line behavior: subcommands, config precedence, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import conceptlinker
from conceptlinker import (
    GoldPair,
    Memory,
    Prediction,
    Query,
    ValidationError,
    load_memory,
    parse_predictions,
    parse_retrievals,
    save_memory,
)
from conceptlinker import cli as cli_module
from conceptlinker import pipeline as pipeline_module
from conceptlinker.cli import SETTINGS, main
from conceptlinker.pipeline import DEFAULT_CONCURRENCY
from conceptlinker.ranker import parse_prompt

from .conftest import (
    Concept,
    ontology_from,
    run_cli,
    write_gold,
    write_jsonl,
    write_ontology,
    write_queries,
)

CONCEPTS = [
    Concept(id="D:1", name="Iron deficiency anemia",
            description="Low hemoglobin caused by depleted iron stores"),
    Concept(id="D:2", name="Pernicious anemia",
            description="Vitamin B12 malabsorption from intrinsic factor loss"),
    Concept(id="D:3", name="Aplastic anemia",
            description="Bone marrow failure with pancytopenia"),
    Concept(id="D:4", name="Sickle cell disease",
            description="Hemoglobin S causing vaso-occlusive crises"),
    Concept(id="D:5", name="Thalassemia"),
]

QUERIES = [
    Query(id="q1", mention="Iron deficiency anemia"),
    Query(id="q2", mention="Sickle cell disease",
          context="Recurrent painful crises with hemoglobin S on electrophoresis"),
    Query(id="q3", mention="Aplastic anemia"),
    Query(id="q4", mention="Thalassemia"),
]

GOLD = [GoldPair("q1", "D:1"), GoldPair("q2", "D:4"),
        GoldPair("q3", "D:3"), GoldPair("q4", "D:5")]


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "ontology": tmp_path / "ontology.jsonl",
        "queries": tmp_path / "queries.jsonl",
        "gold": tmp_path / "gold.jsonl",
        "memory": tmp_path / "memory.bin",
        "out": tmp_path / "out",
    }
    write_ontology(paths["ontology"], ontology_from("anemia", CONCEPTS))
    write_queries(paths["queries"], QUERIES)
    write_gold(paths["gold"], GOLD)
    paths["out"].mkdir()
    return paths


def write_predictions_file(path, rows) -> None:
    """A predictions file of (query id, resolved id or None, score) rows."""
    path.write_text("".join(json.dumps({
        "query_id": query_id, "resolved": resolved, "score": score,
        "kind": "none" if resolved is None else "option",
    }) + "\n" for query_id, resolved, score in rows))


def build(workspace, *extra) -> int:
    return main([
        "build-memory",
        "--ontology", str(workspace["ontology"]),
        "--output", str(workspace["memory"]),
        "--dim", "64",
        *extra,
    ])


def save_remote_memory(workspace, model: str) -> None:
    """A one-concept memory whose vectors came from the remote embedder ``model``."""
    memory = Memory(["D:1"], [False], np.ones((1, 64)), 64, ("remote", model))
    save_memory(memory, workspace["memory"])


def link(workspace, *extra) -> int:
    return main([
        "link",
        "--ontology", str(workspace["ontology"]),
        "--queries", str(workspace["queries"]),
        "--memory", str(workspace["memory"]),
        "--output", str(workspace["out"] / "pred.jsonl"),
        "--dim", "64",
        "--endpoint", "mock:exact",
        *extra,
    ])


class TestBuildMemory:
    def test_reports_entry_accounting(self, workspace, capsys):
        assert build(workspace) == 0
        out = capsys.readouterr().out
        assert "entries: 5+4" in out
        assert "dim: 64" in out
        assert "sha256: " in out
        assert workspace["memory"].exists()

    def test_rebuild_is_byte_identical(self, workspace, capsys):
        assert build(workspace) == 0
        first_bytes = workspace["memory"].read_bytes()
        first_sha = capsys.readouterr().out
        assert build(workspace) == 0
        assert workspace["memory"].read_bytes() == first_bytes
        sha_lines = [l for l in first_sha.splitlines() if l.startswith("sha256")]
        again = [l for l in capsys.readouterr().out.splitlines() if l.startswith("sha256")]
        assert sha_lines == again

    def test_missing_ontology_exits_2_naming_path(self, workspace, capsys):
        code = main([
            "build-memory",
            "--ontology", str(workspace["out"] / "absent.jsonl"),
            "--output", str(workspace["memory"]),
        ])
        assert code == 2
        assert "absent.jsonl" in capsys.readouterr().err


class TestRetrieve:
    def test_writes_ranked_candidates(self, workspace, capsys):
        build(workspace)
        out = workspace["out"] / "ret.jsonl"
        code = main([
            "retrieve",
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(out),
            "--dim", "64",
            "--k", "3",
        ])
        assert code == 0
        ranked = parse_retrievals(out)
        assert set(ranked) == {"q1", "q2", "q3", "q4"}
        assert all(len(ids) == 3 for ids in ranked.values())
        # exact-name queries retrieve their concept first
        assert ranked["q1"][0] == "D:1"

    def test_strict_fingerprint_mismatch_exits_2(self, workspace, capsys, monkeypatch):
        # a local mismatch is fatal anyway; --strict decides only between two remote ids
        monkeypatch.setattr("conceptlinker.transport.time.sleep", lambda s: None)
        save_remote_memory(workspace, "embed-a")
        config = workspace["out"] / "remote.ini"
        config.write_text("[provider]\nendpoint = http://127.0.0.1:9/v1/embed\n")
        args = [
            "retrieve",
            "--config", str(config),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "ret.jsonl"),
            "--provider", "remote",
            "--model", "embed-b",
            "--dim", "64",
        ]
        code = main(args + ["--strict"])
        assert code == 2
        assert "provider" in capsys.readouterr().err
        # without --strict it warns and goes on to embed the queries, which fails
        assert main(args) == 3

    @pytest.mark.parametrize("mismatch, message", [
        (["--seed", "1", "--strict"], "provider"),
        (["--dim", "32"], "dimension mismatch: expected 64, got 32"),
        # two local ids that differ never share a space, strict or not
        (["--seed", "1"], "run requests ('local-trigram', 'trigram-d64-s1')"),
    ])
    def test_other_embedding_space_stops_before_queries_are_read(
            self, workspace, capsys, monkeypatch, mismatch, message):
        build(workspace)  # seed 0, dim 64

        def unexpected(path):
            raise AssertionError("queries read for a memory of another space")

        monkeypatch.setattr("conceptlinker.cli.parse_queries", unexpected)
        code = main([
            "retrieve",
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "ret.jsonl"),
            "--dim", "64",
            *mismatch,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (workspace["out"] / "ret.jsonl").exists()

    @pytest.mark.parametrize("command", ["retrieve", "link"])
    def test_repeated_query_line_exits_2_before_any_output(self, workspace, capsys, command):
        # a repeated query would count twice towards recall, and evaluate
        # would refuse the output
        build(workspace)
        with workspace["queries"].open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "q1", "mention": "Iron deficiency anemia"}) + "\n")
        out = workspace["out"] / "artifact"
        code = main([command, "--ontology", str(workspace["ontology"]),
                     "--queries", str(workspace["queries"]),
                     "--memory", str(workspace["memory"]), "--output", str(out),
                     "--dim", "64", "--endpoint", "mock:exact"])
        assert code == 2
        assert "line 5: malformed record: duplicate query id 'q1'" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_embedding_service_exits_3(self, workspace, capsys, monkeypatch):
        save_remote_memory(workspace, "embed-x")  # a local memory would stop the run first
        monkeypatch.setattr("conceptlinker.transport.time.sleep", lambda s: None)
        config = workspace["out"] / "remote.ini"
        config.write_text("[provider]\nendpoint = http://127.0.0.1:9/v1/embed\n")
        code = main([
            "retrieve",
            "--config", str(config),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "ret.jsonl"),
            "--provider", "remote",
            "--model", "embed-x",
            "--dim", "64",
        ])
        assert code == 3

    def test_lenient_fingerprint_mismatch_warns(self, workspace, caplog):
        build(workspace)
        with caplog.at_level("WARNING"):
            code = main([
                "retrieve",
                "--queries", str(workspace["queries"]),
                "--memory", str(workspace["memory"]),
                "--output", str(workspace["out"] / "ret.jsonl"),
                "--dim", "32",
            ])
        # dim mismatch is fatal regardless; only the id part merely warns
        assert code == 2


class TestLink:
    def test_links_and_reports_kinds(self, workspace, capsys):
        build(workspace)
        assert link(workspace) == 0
        out = capsys.readouterr().out
        assert "queries: 4" in out
        assert "option=4" in out
        predictions = parse_predictions(workspace["out"] / "pred.jsonl")
        assert {p.query_id: p.resolved for p in predictions} == {
            "q1": "D:1", "q2": "D:4", "q3": "D:3", "q4": "D:5"
        }

    @pytest.mark.parametrize("extra, helpers", [((), 0), (("--concurrency", "4"), 3)])
    def test_offline_ranking_lends_a_helper_only_when_asked(self, workspace, monkeypatch,
                                                            extra, helpers):
        # mock ranking is Python, which helper threads would only take turns at
        build(workspace)
        lent = []
        real = pipeline_module._lend
        monkeypatch.setattr(pipeline_module, "_lend",
                            lambda task, count: lent.append(count) or real(task, count))
        assert link(workspace, "--endpoint", "mock:keyword", *extra) == 0
        assert lent == [helpers]

    def test_k_bounds_candidate_slates(self, workspace):
        build(workspace)
        assert link(workspace, "--k", "2") == 0
        details = workspace["out"] / "pred.jsonl.details.jsonl"
        rows = [json.loads(line) for line in details.read_text().splitlines()]
        assert rows and all(len(row["candidates"]) == 2 for row in rows)

    def test_rerun_predictions_byte_identical(self, workspace):
        build(workspace)
        assert link(workspace) == 0
        first = (workspace["out"] / "pred.jsonl").read_bytes()
        assert link(workspace) == 0
        assert (workspace["out"] / "pred.jsonl").read_bytes() == first

    @pytest.mark.parametrize("command", ["link", "ablate"])
    @pytest.mark.parametrize("concepts, message", [
        (CONCEPTS[1:], "1 missing from the ontology (first 'D:1'), 0 new in it;"),
        (CONCEPTS + [Concept(id="D:6", name="Anemia of chronic disease")],
         "0 missing from the ontology, 1 new in it (first 'D:6');"),
    ], ids=["removed", "added"])
    def test_other_concept_set_stops_before_queries_are_read(
            self, workspace, monkeypatch, command, concepts, message):
        # a concept set that changed after the build is fatal, strict or not
        build(workspace)
        write_ontology(workspace["ontology"], ontology_from("anemia", concepts))
        grid = workspace["out"] / "grid.jsonl"
        grid.write_text('{"label": "both"}\n')

        def unexpected(path):
            raise AssertionError("queries read for a memory of another concept set")

        monkeypatch.setattr("conceptlinker.cli.parse_queries", unexpected)
        write_config(workspace, "")
        run = run_cli(workspace["out"], command, "--ontology", str(workspace["ontology"]),
                      "--queries", str(workspace["queries"]),
                      "--memory", str(workspace["memory"]),
                      "--output", str(workspace["out"] / "artifact"),
                      "--dim", "64", "--endpoint", "mock:keyword",
                      *(["--gold", str(workspace["gold"]), "--grid", str(grid)]
                        if command == "ablate" else []))
        # no output, and for link no journal beside it
        assert (run.code, run.created) == (2, set())
        assert message in run.err

    def test_reordered_ontology_links_the_same(self, workspace):
        build(workspace)
        assert link(workspace) == 0
        first = (workspace["out"] / "pred.jsonl").read_bytes()
        write_ontology(workspace["ontology"], ontology_from("anemia", CONCEPTS[::-1]))
        assert link(workspace) == 0
        assert (workspace["out"] / "pred.jsonl").read_bytes() == first

    def test_no_endpoint_exits_2(self, workspace, capsys):
        build(workspace)
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.jsonl"),
            "--dim", "64",
        ])
        assert code == 2
        assert "endpoint" in capsys.readouterr().err

    def test_unknown_mock_exits_2(self, workspace, capsys):
        build(workspace)
        assert link(workspace, "--endpoint", "mock:nope") == 2
        assert "mock:nope" in capsys.readouterr().err

    def test_unreachable_endpoint_exits_3(self, workspace, monkeypatch):
        build(workspace)
        monkeypatch.setattr("conceptlinker.transport.time.sleep", lambda s: None)
        code = link(workspace, "--endpoint", "http://127.0.0.1:9/v1/chat")
        assert code == 0  # per-query transport failures do not abort the batch
        predictions = parse_predictions(workspace["out"] / "pred.jsonl")
        assert all(p.resolved is None for p in predictions)

    def test_record_then_replay(self, workspace):
        build(workspace)
        fixtures = workspace["out"] / "transcript.jsonl"
        assert link(workspace, "--fixtures", str(fixtures)) == 0
        recorded = (workspace["out"] / "pred.jsonl").read_bytes()
        assert fixtures.exists()

        (workspace["out"] / "pred.jsonl").unlink()
        (workspace["out"] / "pred.jsonl.details.jsonl").unlink()
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.jsonl"),
            "--dim", "64",
            "--fixtures", str(fixtures),
        ])
        assert code == 0
        assert (workspace["out"] / "pred.jsonl").read_bytes() == recorded

    def test_transcript_row_with_a_non_string_response_is_not_replayed(self, workspace, caplog):
        build(workspace)
        fixtures = workspace["out"] / "transcript.jsonl"
        pred = workspace["out"] / "pred.jsonl"
        assert link(workspace, "--fixtures", str(fixtures)) == 0
        recorded = pred.read_bytes()
        rows = [json.loads(line) for line in fixtures.read_text().splitlines()]
        rows[0]["response"] = 5
        fixtures.write_text("".join(json.dumps(row) + "\n" for row in rows))

        def run(*endpoint) -> int:
            # a fresh journal each time, so every query goes to the transcript
            (workspace["out"] / "pred.jsonl.details.jsonl").unlink(missing_ok=True)
            return main(["link", "--ontology", str(workspace["ontology"]),
                         "--queries", str(workspace["queries"]),
                         "--memory", str(workspace["memory"]), "--output", str(pred),
                         "--dim", "64", "--fixtures", str(fixtures), *endpoint])

        with caplog.at_level("WARNING"):
            assert run() == 2
        assert "skipping malformed transcript line" in caplog.text
        # a recording run asks for the skipped prompt again, and replay then agrees
        assert run("--endpoint", "mock:exact") == 0
        assert len(fixtures.read_text().splitlines()) == len(rows) + 1
        assert run() == 0
        assert pred.read_bytes() == recorded

    @staticmethod
    def replay(workspace, fixtures) -> int:
        """``link`` with no endpoint: each query is answered by the journal or the transcript."""
        return main(["link", "--ontology", str(workspace["ontology"]),
                     "--queries", str(workspace["queries"]),
                     "--memory", str(workspace["memory"]),
                     "--output", str(workspace["out"] / "pred.jsonl"),
                     "--dim", "64", "--fixtures", str(fixtures)])

    def test_undecodable_journal_line_is_skipped_on_resume(self, workspace, caplog):
        build(workspace)
        pred = workspace["out"] / "pred.jsonl"
        assert link(workspace) == 0
        recorded = pred.read_bytes()
        with open(workspace["out"] / "pred.jsonl.details.jsonl", "ab") as handle:
            handle.write(b"\xff\n")
        empty = workspace["out"] / "empty.jsonl"
        empty.touch()
        # an empty transcript and no endpoint: every query resumes from the journal
        with caplog.at_level("WARNING"):
            assert self.replay(workspace, empty) == 0
        assert "skipping malformed journal line 5" in caplog.text
        assert pred.read_bytes() == recorded

    def test_undecodable_transcript_line_is_skipped_on_replay(self, workspace, caplog):
        build(workspace)
        fixtures = workspace["out"] / "transcript.jsonl"
        pred = workspace["out"] / "pred.jsonl"
        assert link(workspace, "--fixtures", str(fixtures)) == 0
        recorded = pred.read_bytes()
        fixtures.write_bytes(b'{"digest": "\xff", "response": "option 0"}\n'
                             + fixtures.read_bytes())
        # a fresh journal, so every query goes to the transcript
        (workspace["out"] / "pred.jsonl.details.jsonl").unlink()
        with caplog.at_level("WARNING"):
            assert self.replay(workspace, fixtures) == 0
        assert "skipping malformed transcript line 1" in caplog.text
        assert pred.read_bytes() == recorded

    def test_replay_miss_exits_2(self, workspace, capsys):
        build(workspace)
        empty = workspace["out"] / "empty.jsonl"
        empty.write_text("")
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.jsonl"),
            "--dim", "64",
            "--fixtures", str(empty),
        ])
        assert code == 2


class TestEvaluate:
    def stage_predictions(self, workspace):
        # 4 resolved, 3 correct, 1 abstention over 5 gold queries
        gold = GOLD + [GoldPair("q5", "D:2")]
        write_gold(workspace["gold"], gold)
        path = workspace["out"] / "pred.jsonl"
        write_predictions_file(path, [("q1", "D:1", 0.9), ("q2", "D:4", 0.8), ("q3", "D:3", 0.7),
                                      ("q4", "D:9", 0.6), ("q5", None, 0.5)])
        return path

    def test_predictions_mode_table(self, workspace, capsys):
        path = self.stage_predictions(workspace)
        code = main([
            "evaluate",
            "--gold", str(workspace["gold"]),
            "--predictions", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.7500" in out  # precision
        assert "0.6000" in out  # recall and accuracy
        assert "0.6667" in out  # F1

    def test_predictions_mode_report_file(self, workspace, capsys):
        path = self.stage_predictions(workspace)
        report_path = workspace["out"] / "report.json"
        code = main([
            "evaluate",
            "--gold", str(workspace["gold"]),
            "--predictions", str(path),
            "--output", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        metrics = report["rows"][0]["metrics"]
        assert metrics["precision"] == 0.75
        assert metrics["recall"] == 0.6
        assert metrics["f1"] == 0.6667
        assert metrics["counts"]["n_gold"] == 5

    def test_retrievals_mode(self, workspace, capsys):
        path = workspace["out"] / "ret.jsonl"
        rows = [
            {"query_id": "q1", "candidates": [{"cid": "D:1", "score": 1.0}]},
            {"query_id": "q2", "candidates": [{"cid": "D:3", "score": 0.9},
                                              {"cid": "D:4", "score": 0.8}]},
            {"query_id": "q3", "candidates": [{"cid": "D:3", "score": 1.0}]},
            {"query_id": "q4", "candidates": [{"cid": "D:5", "score": 1.0}]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code = main([
            "evaluate",
            "--gold", str(workspace["gold"]),
            "--retrievals", str(path),
            "--ks", "1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hits@1" in out and "hits@2" in out
        assert "0.7500" in out and "1.0000" in out

    @pytest.mark.parametrize("query_id", [["q1"], {"id": "q1"}])
    def test_retrieval_query_id_that_is_not_a_string_exits_2(self, workspace, capsys,
                                                              query_id):
        path = workspace["out"] / "ret.jsonl"
        path.write_text(json.dumps({"query_id": query_id, "candidates": []}) + "\n")
        code = main(["evaluate", "--gold", str(workspace["gold"]), "--retrievals", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1: malformed record: field 'query_id' is not a string" in err

    @pytest.mark.parametrize("table, line", [
        ("q1\tD:1\t0.690430\toption\n", 1),  # the tab-separated table of old
        (None, 2),  # a repeated row would count twice towards recall
    ], ids=["tab-separated", "repeated"])
    def test_malformed_predictions_row_exits_2(self, workspace, table, line):
        path = workspace["out"] / "pred.jsonl"
        if table is None:
            write_predictions_file(path, [("q1", "D:1", 0.9)] * 2)
        else:
            path.write_text(table)
        write_config(workspace, f"[paths]\ngold = {workspace['gold']}\n")
        run = run_cli(workspace["out"], "evaluate", "--predictions", str(path),
                      "--output", str(workspace["out"] / "report.json"))
        assert (run.code, run.created) == (2, set())
        assert f"line {line}: malformed record" in run.err
        assert "Traceback" not in run.err

    def test_requires_exactly_one_input(self, workspace, capsys):
        path = self.stage_predictions(workspace)
        assert main(["evaluate", "--gold", str(workspace["gold"])]) == 2
        assert main([
            "evaluate", "--gold", str(workspace["gold"]),
            "--predictions", str(path), "--retrievals", str(path),
        ]) == 2

    def test_bad_ks_exits_2(self, workspace, capsys):
        path = workspace["out"] / "ret.jsonl"
        path.write_text(json.dumps(
            {"query_id": "q1", "candidates": [{"cid": "D:1", "score": 1.0}]}
        ) + "\n")
        code = main([
            "evaluate",
            "--gold", str(workspace["gold"]),
            "--retrievals", str(path),
            "--ks", "one,two",
        ])
        assert code == 2


class TestAblate:
    def test_grid_report(self, workspace, capsys):
        build(workspace)
        grid = workspace["out"] / "grid.jsonl"
        grid.write_text(
            '{"label": "both"}\n'
            '{"label": "names only", "include_source_context": false, '
            '"include_candidate_context": false}\n'
        )
        report_path = workspace["out"] / "ablation.json"
        code = main([
            "ablate",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--gold", str(workspace["gold"]),
            "--grid", str(grid),
            "--output", str(report_path),
            "--dim", "64",
            "--k", "3",
            "--endpoint", "mock:keyword",
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert [row["label"] for row in report["rows"]] == ["both", "names only"]
        assert report["k"] == 3
        assert all(row["retrieval_digest"] == report["retrieval_digest"]
                   for row in report["rows"])
        out = capsys.readouterr().out
        assert "both" in out and "names only" in out


class TestConfigFile:
    def test_config_supplies_paths_and_flags_override(self, workspace, capsys):
        build(workspace)
        config = workspace["out"] / "run.ini"
        config.write_text(
            "[paths]\n"
            f"queries = {workspace['queries']}\n"
            f"memory = {workspace['memory']}\n"
            f"output = {workspace['out'] / 'ret.jsonl'}\n"
            "[provider]\n"
            "dim = 64\n"
            "[run]\n"
            "k = 3\n"
        )
        assert main(["retrieve", "--config", str(config)]) == 0
        ranked = parse_retrievals(workspace["out"] / "ret.jsonl")
        assert all(len(ids) == 3 for ids in ranked.values())

        assert main(["retrieve", "--config", str(config), "--k", "1"]) == 0
        ranked = parse_retrievals(workspace["out"] / "ret.jsonl")
        assert all(len(ids) == 1 for ids in ranked.values())

    def test_missing_config_exits_2(self, workspace, capsys):
        code = main(["retrieve", "--config", str(workspace["out"] / "nope.ini")])
        assert code == 2
        assert "nope.ini" in capsys.readouterr().err

    def test_bad_value_exits_2(self, workspace, capsys):
        config = workspace["out"] / "run.ini"
        config.write_text("[run]\nk = three\n")
        build(workspace)
        code = main([
            "retrieve",
            "--config", str(config),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "ret.jsonl"),
            "--dim", "64",
        ])
        assert code == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def write_config(workspace, text: str):
    path = workspace["out"] / "run.ini"
    path.write_text(text)
    return path


class Stop(ValidationError):
    """Raised by a recording stand-in once it has seen what the CLI passed it."""


class TestConfigKeys:
    """Each key the CLI reads from a config file reaches what it configures."""

    def test_build_memory_paths_and_local_provider(self, workspace, capsys):
        config = write_config(workspace, (
            "[paths]\n"
            f"ontology = {workspace['ontology']}\n"
            f"memory = {workspace['memory']}\n"
            "[provider]\n"
            "kind = local\n"
            "dim = 32\n"
        ))
        assert main(["build-memory", "--config", str(config)]) == 0
        assert "provider: local-trigram/trigram-d32-s0" in capsys.readouterr().out
        assert load_memory(workspace["memory"]).dim == 32

    def test_remote_provider_settings(self, workspace, monkeypatch):
        seen = {}

        def recording(spec, cache=None):
            seen.update(spec=spec, cache=cache)
            raise Stop("stop")

        monkeypatch.setattr("conceptlinker.cli.RemoteProvider", recording)
        cache = workspace["out"] / "cache"
        config = write_config(workspace, (
            "[paths]\n"
            f"cache_dir = {cache}\n"
            "[provider]\n"
            "kind = remote\n"
            "model = embed-x\n"
            "dim = 48\n"
            "endpoint = http://127.0.0.1:9/v1/embed\n"
            "timeout = 7.5\n"
        ))
        code = main(["build-memory", "--config", str(config),
                     "--ontology", str(workspace["ontology"]),
                     "--output", str(workspace["memory"])])
        assert code == 2
        spec = seen["spec"]
        assert (spec.provider_id, spec.model_id, spec.dim) == ("remote", "embed-x", 48)
        assert spec.endpoint == "http://127.0.0.1:9/v1/embed"
        assert spec.timeout == 7.5
        assert str(seen["cache"].root) == str(cache)

    def test_local_seed_and_strict_from_file_bool_overridden_by_flag(self, workspace, capsys,
                                                                     monkeypatch):
        build(workspace)  # seed 0
        config = write_config(workspace, "[provider]\nseed = 1\n[run]\nstrict = yes\n")
        args = ["retrieve", "--config", str(config),
                "--queries", str(workspace["queries"]),
                "--memory", str(workspace["memory"]),
                "--output", str(workspace["out"] / "ret.jsonl"),
                "--dim", "64"]
        assert main(args) == 2
        assert "trigram-d64-s1" in capsys.readouterr().err
        # two local ids that differ never share a space, strict or not
        assert main(args + ["--no-strict"]) == 2

        seen = []
        real = cli_module.link_queries

        def recording(queries, candidates, ontology, config, endpoint, **kwargs):
            seen.append(config.include_source_context)
            return real(queries, candidates, ontology, config, endpoint, **kwargs)

        monkeypatch.setattr("conceptlinker.cli.link_queries", recording)
        config = write_config(workspace, "[prompt]\nsource_context = no\n")
        assert link(workspace, "--config", str(config)) == 0
        assert link(workspace, "--config", str(config), "--source-context") == 0
        assert seen == [False, True]

    def test_int_from_file_overridden_by_flag(self, workspace, capsys):
        build(workspace)
        config = write_config(workspace, "[run]\nconcurrency = 0\n")
        assert link(workspace, "--config", str(config)) == 2
        assert "concurrency must be >= 1, got 0" in capsys.readouterr().err
        assert link(workspace, "--config", str(config), "--concurrency", "2") == 0

    def test_http_endpoint_settings(self, workspace, monkeypatch):
        seen = {}

        class Recording:
            def __init__(self, url, model, *, timeout):
                seen.update(url=url, model=model, timeout=timeout)

        def link_queries(*args, **kwargs):
            seen.update(budget=kwargs["token_budget"], concurrency=kwargs["concurrency"])
            raise Stop("stop")

        monkeypatch.setattr("conceptlinker.cli.HttpCompletionEndpoint", Recording)
        monkeypatch.setattr("conceptlinker.cli.link_queries", link_queries)
        build(workspace)
        config = write_config(workspace, (
            "[endpoint]\n"
            "url = http://127.0.0.1:9/v1/chat\n"
            "model = ranker-x\n"
            "token_budget = 5000\n"
            "timeout = 12.5\n"
        ))
        assert main([
            "link", "--config", str(config),
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.jsonl"),
            "--dim", "64",
        ]) == 2
        # an endpoint on the network keeps the default concurrency
        assert seen == {"url": "http://127.0.0.1:9/v1/chat", "model": "ranker-x",
                        "timeout": 12.5, "budget": 5000, "concurrency": DEFAULT_CONCURRENCY}

    def test_token_budget_from_file_applies(self, workspace, capsys):
        build(workspace)
        config = write_config(
            workspace, "[endpoint]\nurl = http://127.0.0.1:9/v1/chat\ntoken_budget = 1\n"
        )
        assert main([
            "link", "--config", str(config),
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.jsonl"),
            "--dim", "64",
        ]) == 2
        assert "budget of 1" in capsys.readouterr().err

    def test_prompt_settings(self, workspace, monkeypatch):
        seen = {}
        real = cli_module.link_queries

        def recording(queries, candidates, ontology, config, endpoint, **kwargs):
            seen.update(config=config, concurrency=kwargs["concurrency"])
            return real(queries, candidates, ontology, config, endpoint, **kwargs)

        monkeypatch.setattr("conceptlinker.cli.link_queries", recording)
        build(workspace)
        config = write_config(workspace, (
            "[run]\n"
            "concurrency = 3\n"
            "[prompt]\n"
            "source_context = false\n"
            "candidate_context = off\n"
        ))
        assert link(workspace, "--config", str(config)) == 0
        prompt = seen["config"]
        assert prompt.include_source_context is False
        assert prompt.include_candidate_context is False
        assert seen["concurrency"] == 3

    def test_bad_max_option_context_chars_exits_2(self, workspace, capsys):
        build(workspace)
        config = write_config(workspace, "[prompt]\nmax_option_context_chars = 10\n")
        assert link(workspace, "--config", str(config)) == 2
        assert "max_option_context_chars" in capsys.readouterr().err

    def test_endpoint_and_fixtures_from_file(self, workspace):
        build(workspace)
        fixtures = workspace["out"] / "transcript.jsonl"
        config = write_config(
            workspace, f"[paths]\nfixtures = {fixtures}\n[endpoint]\nurl = mock:exact\n"
        )
        args = ["link", "--config", str(config),
                "--ontology", str(workspace["ontology"]),
                "--queries", str(workspace["queries"]),
                "--memory", str(workspace["memory"]),
                "--output", str(workspace["out"] / "pred.jsonl"),
                "--dim", "64"]
        assert main(args) == 0
        assert fixtures.exists() and fixtures.read_text().count("\n") == 4

    def test_evaluate_paths_and_ks(self, workspace, capsys):
        retrievals = workspace["out"] / "ret.jsonl"
        retrievals.write_text("".join(
            json.dumps({"query_id": pair.source_id,
                        "candidates": [{"cid": pair.target_id, "score": 1.0}]}) + "\n"
            for pair in GOLD
        ))
        report = workspace["out"] / "report.json"
        config = write_config(workspace, (
            "[paths]\n"
            f"gold = {workspace['gold']}\n"
            f"retrievals = {retrievals}\n"
            f"output = {report}\n"
            "[run]\n"
            "ks = 1,3\n"
        ))
        assert main(["evaluate", "--config", str(config)]) == 0
        assert json.loads(report.read_text())["ks"] == [1, 3]

        predictions = workspace["out"] / "pred.jsonl"
        write_predictions_file(predictions, [("q1", "D:1", 0.9)]
                               + [(f"q{i}", None, 0.5) for i in (2, 3, 4)])
        config = write_config(workspace, (
            "[paths]\n"
            f"gold = {workspace['gold']}\n"
            f"predictions = {predictions}\n"
        ))
        assert main(["evaluate", "--config", str(config)]) == 0
        assert "0.2500" in capsys.readouterr().out  # accuracy 1 of 4

    def test_ablate_paths_from_file(self, workspace):
        build(workspace)
        grid = workspace["out"] / "grid.jsonl"
        grid.write_text('{"label": "both"}\n')
        report = workspace["out"] / "ablation.json"
        config = write_config(workspace, (
            "[paths]\n"
            f"ontology = {workspace['ontology']}\n"
            f"queries = {workspace['queries']}\n"
            f"memory = {workspace['memory']}\n"
            f"gold = {workspace['gold']}\n"
            f"grid = {grid}\n"
            f"output = {report}\n"
            "[provider]\n"
            "dim = 64\n"
            "[endpoint]\n"
            "url = mock:keyword\n"
        ))
        assert main(["ablate", "--config", str(config)]) == 0
        assert [row["label"] for row in json.loads(report.read_text())["rows"]] == ["both"]

    def test_link_checks_endpoint_before_reading_ontology(self, workspace, capsys):
        build(workspace)
        workspace["ontology"].write_text('{"id": "D:1", "name": \n')
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.jsonl"),
            "--dim", "64",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no completion endpoint" in err
        assert "line" not in err


REMOTE = "[provider]\nkind = remote\nmodel = m\nendpoint = http://127.0.0.1:9/embed\n"
HTTP_ENDPOINT = "http://127.0.0.1:9/complete"
BAD_TIMEOUTS = ("x", "0", "-1")

READERS = ("parse_ontology", "load_memory", "parse_queries", "parse_gold", "parse_grid",
           "parse_predictions", "parse_retrievals")


@pytest.mark.parametrize("argv, config", [
    (["build-memory", "--dim", "0"], ""),
    (["retrieve", "--k", "0"], ""),
    (["retrieve", "--provider", "remote"], ""),
    (["retrieve"], "[run]\nstrict = maybe\n"),
    (["link", "--endpoint", "mock:exact", "--concurrency", "0"], ""),
    (["link"], ""),
    (["link", "--endpoint", "mock:exact", "--none-label", "7"], ""),
    (["link", "--endpoint", "mock:exact"], "[prompt]\nmax_option_context_chars = 10\n"),
    (["link", "--endpoint", "mock:exact"], "[provider]\nkind = other\n"),
    (["ablate", "--endpoint", "mock:keyword", "--k", "0"], ""),
    (["ablate", "--endpoint", "mock:keyword"], "[provider]\nseed = x\n"),
    (["ablate", "--endpoint", "mock:keyword", "--grid", ""], ""),
    (["evaluate", "--retrievals", "{queries}", "--ks", "one"], ""),
    (["evaluate", "--predictions", "{out}/absent.jsonl"], ""),
    *[(["retrieve"], REMOTE + f"timeout = {bad}\n") for bad in BAD_TIMEOUTS],
    *[(["link", "--endpoint", HTTP_ENDPOINT], f"[endpoint]\ntimeout = {bad}\n")
      for bad in BAD_TIMEOUTS],
    (["retrieve", "--dim", "8"], ""),
    (["build-memory", "--dim", "8"], ""),
    *[(["evaluate", "--retrievals", "{queries}", "--ks", ks], "") for ks in ("5,1", "0", ",")],
    # a local model id is always trigram-d<dim>-s<seed>
    (["build-memory", "--model", "m"], ""),
    (["retrieve"], "[provider]\nmodel = trigram-d256-s1\n"),
    # the memory does not depend on the ontology's file name, so nothing tags it
    (["build-memory", "--tag", "t"], ""),
    # a key no setting reads: removed, misspelt, or in [DEFAULT], which
    # configparser copies into every section
    (["link", "--endpoint", "mock:keyword"], "[run]\ntemplate = v2\n"),
    (["link", "--endpoint", "mock:keyword"], "[prompt]\nnone_labl = None\n"),
    (["retrieve"], "[DEFAULT]\nk = 5\n[run]\n"),
    # the none label is fixed, so the flag is gone
    (["link", "--endpoint", "mock:exact", "--none-label", "None"], ""),
])
def test_usage_errors_come_before_any_input_is_read(workspace, monkeypatch, argv, config):
    def unexpected(*args, **kwargs):
        raise AssertionError("an input was read before the settings were checked")

    for reader in READERS:
        monkeypatch.setattr(f"conceptlinker.cli.{reader}", unexpected)
    workspace["memory"].write_bytes(b"")
    grid = workspace["out"] / "grid.jsonl"
    grid.write_text("{}\n")
    write_config(workspace, config)
    argv = [arg.format(queries=workspace["queries"], out=workspace["out"]) for arg in argv]
    inputs = ["--ontology", str(workspace["ontology"]), "--queries", str(workspace["queries"]),
              "--memory", str(workspace["memory"]), "--gold", str(workspace["gold"]),
              "--output", str(workspace["out"] / "artifact")]
    if argv[0] == "ablate" and "--grid" not in argv:
        inputs += ["--grid", str(grid)]
    run = run_cli(workspace["out"], *argv, *inputs)
    assert (run.code, run.created) == (2, set()), run.err


@pytest.mark.parametrize("config, named", [
    ("[run]\nk = 5\ntemplate = v2\n[prompt]\nnone_label = None\n",
     "[run] template, [prompt] none_label"),
    ("[DEFAULT]\ntimeout = 5\n[provider]\n[endpoint]\n", "[DEFAULT] timeout"),
])
def test_unread_config_keys_are_named(workspace, config, named):
    write_config(workspace, config)
    run = run_cli(workspace["out"], "retrieve")
    assert run.code == 2
    assert run.err.splitlines()[-1].endswith(f"has keys no setting reads: {named}")


def test_other_config_sections_are_ignored(workspace):
    build(workspace)
    config = write_config(workspace, "[notes]\nauthor = someone\n[run]\nk = 2\n")
    assert link(workspace, "--config", str(config)) == 0


DEEP = "[" * 1000 + "]" * 1000  # 2 KB, nested past the recursion limit


class DeepReply:
    """A 200 reply whose body is ``DEEP``."""

    status_code = 200

    def json(self):
        return json.loads(DEEP)


@pytest.mark.parametrize("site, code, message", [
    ("records", 2, "line 5: malformed record: invalid JSON (nested too deep)"),
    ("memory-header", 2, "not a memory file"),
    ("journal", 0, "skipping malformed journal line 5"),
    ("completion-reply", 0, ""),
    ("embedding-reply", 3, "malformed reply"),
], ids=["records", "memory-header", "journal", "completion-reply", "embedding-reply"])
def test_a_value_nested_1000_deep_is_refused_not_a_crash(workspace, monkeypatch,
                                                          site, code, message):
    monkeypatch.setattr("conceptlinker.llm.post_json", lambda *args: DeepReply())
    monkeypatch.setattr("conceptlinker.embedding.post_json", lambda *args: DeepReply())
    write_config(workspace, REMOTE if site == "embedding-reply" else "")
    pred = workspace["out"] / "pred.jsonl"
    argv = ["link", "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]), "--memory", str(workspace["memory"]),
            "--output", str(pred), "--dim", "64", "--endpoint", "mock:exact"]
    build(workspace)
    if site == "records":
        with workspace["queries"].open("a") as fh:
            fh.write(f'{{"id": "q5", "mention": {DEEP}}}\n')
    elif site == "memory-header":
        workspace["memory"].write_text(DEEP + "\n")
    elif site == "journal":
        assert main(argv) == 0
        with open(str(pred) + ".details.jsonl", "a") as fh:
            fh.write(DEEP + "\n")
    elif site == "completion-reply":
        argv[-1] = HTTP_ENDPOINT
    else:
        save_remote_memory(workspace, "m")
        argv = ["retrieve", *argv[3:-2]]
    run = run_cli(workspace["out"], *argv)
    assert run.code == code, run.err
    assert message in run.err and "Traceback" not in run.err
    if site == "completion-reply":
        kinds = {json.loads(line)["kind"] for line in pred.read_text().splitlines()}
        assert kinds == {"transport_error"}


@pytest.mark.parametrize("field", ["id", "name", "description", "context"])
def test_a_lone_surrogate_is_a_malformed_record_named_by_file_and_line(workspace, field):
    write_config(workspace, "")
    pred = workspace["out"] / "pred.jsonl"
    argv = ["link", "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]), "--memory", str(workspace["memory"]),
            "--output", str(pred), "--dim", "64", "--endpoint", "mock:exact"]
    if field == "context":
        build(workspace)
        path = workspace["queries"]
        records = [{"id": q.id, "mention": q.mention, "context": q.context} for q in QUERIES]
    else:
        path = workspace["ontology"]
        records = [{"id": c.id, "name": c.name, "description": c.description}
                   for c in CONCEPTS]
        argv = ["build-memory", *argv[1:3], "--output", str(workspace["memory"]), "--dim", "64"]
    # json.dumps writes the lone surrogate as the escape "\ud800"
    records[2][field] = "marrow \ud800 failure"
    write_jsonl(path, records)
    run = run_cli(workspace["out"], *argv)
    assert (run.code, run.created) == (2, set()), run.err
    assert (f"{path}: line 3: malformed record: field {field!r} holds a lone surrogate"
            in run.err)
    assert "Traceback" not in run.err


# reader: the command that reaches it, the input made bad, its text, the error after the path
BAD_RECORDS = {
    "parse_ontology": (["build-memory", "--output", "{memory}"], "ontology",
                       '{"id": "D:1", "name": "a"}\n{"id": "D:1", "name": "b"}\n',
                       "line 2: duplicate concept id 'D:1'"),
    "parse_queries": (["retrieve", "--output", "{out}/ret.jsonl"], "queries",
                      '{"id": "q1", "mention": "a"}\n\n{"id": "q2", "mention": " "}\n',
                      "line 3: query mention is empty"),
    "parse_gold": (["evaluate", "--predictions", "{predictions}"], "gold",
                   '{"source": "q1"}\n',
                   "line 1: malformed record: missing or empty required field 'target'"),
    "parse_predictions": (["evaluate", "--predictions", "{predictions}"], "predictions",
                          '{"query_id": "q1", "resolved": null, "score": 0.5, "kind": "none"}\n'
                          '{"query_id": "q2", "resolved": "D:4", "score": 0.5, "kind": "odd"}\n',
                          "line 2: malformed record: 'odd' is not a valid SelectionKind"),
    "parse_retrievals": (["evaluate", "--retrievals", "{retrievals}"], "retrievals",
                         '{"query_id": "q1", "candidates": [\n',
                         "line 1: malformed record: invalid JSON ("),
    "parse_grid": (["ablate", "--grid", "{grid}", "--output", "{out}/report.json",
                    "--endpoint", "mock:keyword"], "grid",
                   '{"label": "both"}\n{"label": 3}\n',
                   "line 2: malformed record: field 'label' is not a string"),
}


@pytest.mark.parametrize("reader", list(BAD_RECORDS))
def test_a_bad_record_is_named_by_file_and_line(workspace, reader):
    argv, bad, text, message = BAD_RECORDS[reader]
    paths = {**workspace, "predictions": workspace["out"] / "pred.jsonl",
             "retrievals": workspace["out"] / "ret.jsonl", "grid": workspace["out"] / "grid.jsonl"}
    write_config(workspace, "")
    build(workspace)
    write_predictions_file(paths["predictions"], [(g.source_id, g.target_id, 0.5) for g in GOLD])
    paths[bad].write_text(text)
    inputs = ["--ontology", str(workspace["ontology"]), "--queries", str(workspace["queries"]),
              "--memory", str(workspace["memory"]), "--gold", str(workspace["gold"]),
              "--dim", "64"]
    run = run_cli(workspace["out"], *[arg.format(**paths) for arg in argv], *inputs)
    assert (run.code, run.created) == (2, set()), run.err
    assert f"error: {paths[bad]}: {message}" in run.err
    assert "Traceback" not in run.err


@pytest.mark.parametrize("bad", BAD_TIMEOUTS)
@pytest.mark.parametrize("section", ["provider", "endpoint"])
def test_bad_timeout_names_its_setting(workspace, capsys, section, bad):
    config = REMOTE if section == "provider" else "[endpoint]\n"
    argv = ["retrieve"] if section == "provider" else ["link", "--endpoint", HTTP_ENDPOINT]
    ini = write_config(workspace, config + f"timeout = {bad}\n")
    workspace["memory"].write_bytes(b"")
    assert main(argv + [
        "--ontology", str(workspace["ontology"]), "--queries", str(workspace["queries"]),
        "--memory", str(workspace["memory"]), "--output", str(workspace["out"] / "artifact"),
        "--config", str(ini),
    ]) == 2
    assert f"[{section}] timeout must be a positive number, got '{bad}'" in capsys.readouterr().err


COMMANDS = ["build-memory", "retrieve", "link", "evaluate", "ablate"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_renders_its_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out and "--no-strict" in out
    assert ("--ks" in out, "--grid" in out) == (command == "evaluate", command == "ablate")


@pytest.mark.parametrize("command", COMMANDS)
def test_provider_flag_keeps_its_choices(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--provider", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_readme_config_table_agrees_with_settings():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| `[section] key` | flag | default |\n| --- | --- | --- |\n")[1]
    table = table.split("\n\n")[0]
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([^|]*) \|", table, flags=re.MULTILINE)
    assert len(rows) == len(table.splitlines())
    keys = [(section, key) for section, key, _ in rows]
    assert sorted(keys) == sorted((section, key) for section, key, _, _ in SETTINGS.values())
    assert len(set(keys)) == len(keys)
    flag_cells = {(section, key): cell.strip() for section, key, cell in rows}
    for name, (section, key, default, help_text) in SETTINGS.items():
        flag = name.replace("_", "-")
        if help_text is None:
            want = "file only"
        elif isinstance(default, bool):
            want = f"`--{flag}` / `--no-{flag}`"
        else:
            want = f"`--{flag}`"
        if name in cli_module._COMMAND_FLAGS:
            want += f" (`{cli_module._COMMAND_FLAGS[name]}`)"
        assert flag_cells[section, key] == want, f"[{section}] {key}"


# Every offline command in one fresh process: the HTTP stack stays unloaded.
_OFFLINE_RUN = """
import json, sys
import conceptlinker
from conceptlinker import cli

config, out = sys.argv[1:]
fixtures = ["--fixtures", out + "/transcript.jsonl"]
runs = [
    ["build-memory"],
    ["retrieve", "--output", out + "/retrievals.jsonl"],
    ["link", "--endpoint", "mock:keyword", *fixtures, "--output", out + "/recorded.jsonl"],
    ["link", *fixtures, "--output", out + "/replayed.jsonl"],
    ["evaluate", "--predictions", out + "/replayed.jsonl"],
    ["ablate", "--endpoint", "mock:keyword", "--output", out + "/ablation.json"],
]
codes = [cli.main([*argv, "--config", config]) for argv in runs]
loaded = [name for name in ("requests", "urllib3", "ssl") if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_offline_commands_never_load_the_http_stack(tmp_path):
    data = Path(__file__).parents[1] / "demos" / "data"
    config = tmp_path / "run.ini"
    config.write_text(
        "[paths]\n"
        + "".join(f"{key} = {data / key}.jsonl\n" for key in ("ontology", "queries", "gold", "grid"))
        + f"memory = {tmp_path / 'memory.bin'}\n"
    )
    src = str(Path(conceptlinker.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _OFFLINE_RUN, str(config), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "loaded": []}, run.stderr
    assert (tmp_path / "recorded.jsonl").read_bytes() == (tmp_path / "replayed.jsonl").read_bytes()


DEMO_DATA = Path(__file__).parents[1] / "demos" / "data"


def demo_config(tmp_path, name: str, budget: str | None) -> str:
    path = tmp_path / name
    path.write_text(
        "[paths]\n"
        + "".join(f"{key} = {DEMO_DATA / key}.jsonl\n" for key in ("ontology", "queries"))
        + f"memory = {tmp_path / 'memory.bin'}\n"
        + ("" if budget is None else f"[endpoint]\ntoken_budget = {budget}\n")
    )
    return str(path)


def test_budget_applies_to_mock_recording_and_replay(tmp_path, capsys):
    plain = demo_config(tmp_path, "plain.ini", None)
    shed = demo_config(tmp_path, "shed.ini", "300")
    assert main(["build-memory", "--config", plain]) == 0
    recorded, replayed = tmp_path / "recorded.jsonl", tmp_path / "replayed.jsonl"
    transcript, full = tmp_path / "shed.jsonl", tmp_path / "full.jsonl"
    assert main(["link", "--config", shed, "--endpoint", "mock:keyword",
                 "--fixtures", str(transcript), "--output", str(recorded)]) == 0
    assert main(["link", "--config", shed, "--fixtures", str(transcript),
                 "--output", str(replayed)]) == 0
    assert recorded.read_bytes() == replayed.read_bytes()
    # every demo prompt is over 300 estimated tokens, so none was sent whole
    assert main(["link", "--config", plain, "--endpoint", "mock:keyword",
                 "--fixtures", str(full), "--output", str(tmp_path / "full-pred.jsonl")]) == 0
    digests = [{json.loads(line)["digest"] for line in path.read_text().splitlines()}
               for path in (transcript, full)]
    assert len(digests[0]) == 6 and not digests[0] & digests[1]

    capsys.readouterr()
    tight = demo_config(tmp_path, "tight.ini", "100")
    assert main(["link", "--config", tight, "--endpoint", "mock:keyword",
                 "--output", str(tmp_path / "tight.jsonl")]) == 2
    assert "budget of 100" in capsys.readouterr().err


class ByMention:
    """An endpoint that answers each query from its own script, by the mention in the prompt.

    A mention's replies are used in turn; one with no script left picks option 0.
    """

    def __init__(self, scripts: dict[str, list[str]]) -> None:
        self.scripts = {mention: list(replies) for mention, replies in scripts.items()}
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        mention, _, _ = parse_prompt(prompt)
        with self._lock:
            self.calls.append(mention)
            replies = self.scripts.get(mention)
            return replies.pop(0) if replies else "option 0"


def test_link_records_a_reask_and_a_parse_failure(tmp_path, monkeypatch, capsys):
    config = demo_config(tmp_path, "run.ini", None)
    assert main(["build-memory", "--config", config]) == 0
    endpoint = ByMention({"platelet P2Y12 disorder": ["no idea", "option 0"],
                          "low platelet count": ["no idea", "still no idea"]})
    monkeypatch.setattr(cli_module, "_completion_endpoint", lambda settings: endpoint)
    out = tmp_path / "pred.jsonl"
    capsys.readouterr()
    assert main(["link", "--config", config, "--output", str(out)]) == 0
    assert "kinds: option=5, none=0, parse_failure=1, transport_error=0" in capsys.readouterr().out
    kinds = {row["query_id"]: row["kind"] for row in map(json.loads, out.read_text().splitlines())}
    assert kinds == {"q1": "option", "q2": "parse_failure", "q3": "option", "q4": "option",
                     "q5": "option", "q6": "option"}
    details = Path(f"{out}.details.jsonl").read_text().splitlines()
    attempts = {row["query_id"]: row["attempts"] for row in map(json.loads, details)}
    assert attempts == {"q1": 2, "q2": 2, "q3": 1, "q4": 1, "q5": 1, "q6": 1}
    assert len(endpoint.calls) == 8

    # every outcome, the parse failure too, is journaled, so a rerun replays them all
    first = out.read_bytes()
    assert main(["link", "--config", config, "--output", str(out)]) == 0
    assert len(endpoint.calls) == 8
    assert out.read_bytes() == first


def test_any_id_survives_link_and_evaluate(tmp_path):
    # a tab or a line break in a query id, and a correct pick of a concept
    # whose id is NONE, are written and read back like any other id
    renamed = {"q1": "q\t1", "q2": "q\n2", "RD:0012": "NONE"}
    runs = []
    for name, ids in (("plain", {}), ("renamed", renamed)):
        data = tmp_path / name
        data.mkdir()
        for key, fields in (("ontology", ["id"]), ("queries", ["id"]),
                            ("gold", ["source", "target"])):
            text = (DEMO_DATA / f"{key}.jsonl").read_text(encoding="utf-8")
            rows = [json.loads(line) for line in text.splitlines()]
            for row, field in ((row, field) for row in rows for field in fields):
                row[field] = ids.get(row[field], row[field])
            write_jsonl(data / f"{key}.jsonl", rows)
        memory, predictions, report = (data / f for f in ("memory.bin", "pred.jsonl", "report.json"))
        assert main(["build-memory", "--ontology", str(data / "ontology.jsonl"),
                     "--output", str(memory)]) == 0
        assert main(["link", "--ontology", str(data / "ontology.jsonl"),
                     "--queries", str(data / "queries.jsonl"), "--memory", str(memory),
                     "--endpoint", "mock:keyword", "--output", str(predictions)]) == 0
        assert main(["evaluate", "--gold", str(data / "gold.jsonl"),
                     "--predictions", str(predictions), "--output", str(report)]) == 0
        runs.append((parse_predictions(predictions), json.loads(report.read_text())["rows"]))
    (plain, plain_rows), (odd, odd_rows) = runs
    assert odd_rows == plain_rows
    assert odd == [Prediction(renamed.get(p.query_id, p.query_id),
                              renamed.get(p.resolved, p.resolved)) for p in plain]
    assert {"q\t1", "q\n2"} <= {p.query_id for p in odd} and "NONE" in {p.resolved for p in odd}


@pytest.mark.parametrize("command", ["link", "ablate"])
@pytest.mark.parametrize("endpoint", [
    ["--endpoint", "mock:exact"],
    ["--endpoint", "mock:keyword"],
    ["--endpoint", HTTP_ENDPOINT],
    ["--endpoint", "mock:keyword", "--fixtures", "{transcript}"],
    ["--fixtures", "{transcript}"],
], ids=["mock-exact", "mock-keyword", "http", "recording", "replay"])
def test_zero_token_budget_is_a_usage_error(tmp_path, capsys, command, endpoint):
    config = tmp_path / "run.ini"
    config.write_text("[endpoint]\ntoken_budget = 0\n")
    # every input exists but none parses, so reading any of them would fail differently
    inputs = []
    names = ["ontology", "queries", "memory", "gold"] + (["grid"] if command == "ablate" else [])
    for name in names:
        (tmp_path / name).write_text("not an input\n")
        inputs += [f"--{name}", str(tmp_path / name)]
    transcript = tmp_path / "transcript.jsonl"
    argv = [command, "--config", str(config), *inputs, "--output", str(tmp_path / "out"),
            *(arg.format(transcript=transcript) for arg in endpoint)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: token_budget must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists() and not transcript.exists()
