"""Command-line behavior: subcommands, config precedence, exit codes."""

from __future__ import annotations

import json

import pytest

from conceptlinker import (
    Concept,
    GoldPair,
    Ontology,
    Query,
    parse_predictions,
    parse_retrievals,
    write_gold,
    write_ontology,
    write_queries,
)
from conceptlinker.cli import main

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
    write_ontology(paths["ontology"], Ontology("anemia", CONCEPTS))
    write_queries(paths["queries"], QUERIES)
    write_gold(paths["gold"], GOLD)
    paths["out"].mkdir()
    return paths


def build(workspace, *extra) -> int:
    return main([
        "build-memory",
        "--ontology", str(workspace["ontology"]),
        "--output", str(workspace["memory"]),
        "--dim", "64",
        *extra,
    ])


def link(workspace, *extra) -> int:
    return main([
        "link",
        "--ontology", str(workspace["ontology"]),
        "--queries", str(workspace["queries"]),
        "--memory", str(workspace["memory"]),
        "--output", str(workspace["out"] / "pred.tsv"),
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

    def test_strict_fingerprint_mismatch_exits_2(self, workspace, capsys):
        build(workspace)
        code = main([
            "retrieve",
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "ret.jsonl"),
            "--dim", "32",
            "--strict",
        ])
        assert code == 2
        assert "provider" in capsys.readouterr().err

    def test_unreachable_embedding_service_exits_3(self, workspace, capsys, monkeypatch):
        build(workspace)
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
        predictions = parse_predictions(workspace["out"] / "pred.tsv")
        assert {p.query_id: p.resolved for p in predictions} == {
            "q1": "D:1", "q2": "D:4", "q3": "D:3", "q4": "D:5"
        }

    def test_k_bounds_candidate_slates(self, workspace):
        build(workspace)
        assert link(workspace, "--k", "2") == 0
        details = workspace["out"] / "pred.tsv.details.jsonl"
        rows = [json.loads(line) for line in details.read_text().splitlines()]
        assert rows and all(len(row["candidates"]) == 2 for row in rows)

    def test_rerun_predictions_byte_identical(self, workspace):
        build(workspace)
        assert link(workspace) == 0
        first = (workspace["out"] / "pred.tsv").read_bytes()
        assert link(workspace) == 0
        assert (workspace["out"] / "pred.tsv").read_bytes() == first

    def test_no_endpoint_exits_2(self, workspace, capsys):
        build(workspace)
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.tsv"),
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
        predictions = parse_predictions(workspace["out"] / "pred.tsv")
        assert all(p.resolved is None for p in predictions)

    def test_record_then_replay(self, workspace):
        build(workspace)
        fixtures = workspace["out"] / "transcript.jsonl"
        assert link(workspace, "--fixtures", str(fixtures)) == 0
        recorded = (workspace["out"] / "pred.tsv").read_bytes()
        assert fixtures.exists()

        (workspace["out"] / "pred.tsv").unlink()
        (workspace["out"] / "pred.tsv.details.jsonl").unlink()
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.tsv"),
            "--dim", "64",
            "--fixtures", str(fixtures),
        ])
        assert code == 0
        assert (workspace["out"] / "pred.tsv").read_bytes() == recorded

    def test_replay_miss_exits_2(self, workspace, capsys):
        build(workspace)
        empty = workspace["out"] / "empty.jsonl"
        empty.write_text("")
        code = main([
            "link",
            "--ontology", str(workspace["ontology"]),
            "--queries", str(workspace["queries"]),
            "--memory", str(workspace["memory"]),
            "--output", str(workspace["out"] / "pred.tsv"),
            "--dim", "64",
            "--fixtures", str(empty),
        ])
        assert code == 2


class TestEvaluate:
    def stage_predictions(self, workspace):
        # 4 resolved, 3 correct, 1 abstention over 5 gold queries
        gold = GOLD + [GoldPair("q5", "D:2")]
        write_gold(workspace["gold"], gold)
        path = workspace["out"] / "pred.tsv"
        path.write_text(
            "q1\tD:1\t0.900000\toption\n"
            "q2\tD:4\t0.800000\toption\n"
            "q3\tD:3\t0.700000\toption\n"
            "q4\tD:9\t0.600000\toption\n"
            "q5\tNONE\t0.500000\tnone\n"
        )
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
