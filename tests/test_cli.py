"""Command-line behavior: subcommands, config precedence, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conceptlinker
from conceptlinker import (
    Concept,
    GoldPair,
    Query,
    ValidationError,
    load_memory,
    parse_predictions,
    parse_retrievals,
    write_gold,
    write_ontology,
    write_queries,
)
from conceptlinker import cli as cli_module
from conceptlinker.cli import SETTINGS, main

from .conftest import ontology_from

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


def write_config(workspace, text: str):
    path = workspace["out"] / "run.ini"
    path.write_text(text)
    return path


class Stop(ValidationError):
    """Raised by a recording stand-in once it has seen what the CLI passed it."""


class TestConfigKeys:
    """Each key the CLI reads from a config file reaches what it configures."""

    def test_build_memory_paths_tag_and_local_provider(self, workspace, capsys):
        config = write_config(workspace, (
            "[paths]\n"
            f"ontology = {workspace['ontology']}\n"
            f"memory = {workspace['memory']}\n"
            "[provider]\n"
            "kind = local\n"
            "model = my-trigrams\n"
            "dim = 32\n"
            "[run]\n"
            "tag = from-config\n"
        ))
        assert main(["build-memory", "--config", str(config)]) == 0
        assert "provider: local-trigram/my-trigrams" in capsys.readouterr().out
        memory = load_memory(workspace["memory"])
        assert memory.ontology_tag == "from-config"
        assert memory.dim == 32

    def test_remote_provider_settings(self, workspace, monkeypatch):
        seen = {}

        def recording(spec, cache_dir=None):
            seen.update(spec=spec, cache_dir=cache_dir)
            raise Stop("stop")

        monkeypatch.setattr("conceptlinker.cli.make_provider", recording)
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
        assert str(seen["cache_dir"]) == str(cache)

    def test_local_seed_and_strict_from_file_bool_overridden_by_flag(self, workspace, capsys):
        build(workspace)  # seed 0
        config = write_config(workspace, "[provider]\nseed = 1\n[run]\nstrict = yes\n")
        args = ["retrieve", "--config", str(config),
                "--queries", str(workspace["queries"]),
                "--memory", str(workspace["memory"]),
                "--output", str(workspace["out"] / "ret.jsonl"),
                "--dim", "64"]
        assert main(args) == 2
        assert "trigram-d64-s1" in capsys.readouterr().err
        assert main(args + ["--no-strict"]) == 0

    def test_int_from_file_overridden_by_flag(self, workspace, capsys):
        build(workspace)
        config = write_config(workspace, "[run]\nconcurrency = 0\n")
        assert link(workspace, "--config", str(config)) == 2
        assert "concurrency must be >= 1, got 0" in capsys.readouterr().err
        assert link(workspace, "--config", str(config), "--concurrency", "2") == 0

    def test_http_endpoint_settings(self, workspace, monkeypatch):
        seen = {}

        class Recording:
            def __init__(self, url, model, *, timeout, token_budget):
                seen.update(url=url, model=model, timeout=timeout, budget=token_budget)
                raise Stop("stop")

        monkeypatch.setattr("conceptlinker.cli.HttpCompletionEndpoint", Recording)
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
            "--output", str(workspace["out"] / "pred.tsv"),
            "--dim", "64",
        ]) == 2
        assert seen == {"url": "http://127.0.0.1:9/v1/chat", "model": "ranker-x",
                        "timeout": 12.5, "budget": 5000}

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
            "--output", str(workspace["out"] / "pred.tsv"),
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
            "none_label = Nothing fits\n"
            "max_option_context_chars = 80\n"
        ))
        assert link(workspace, "--config", str(config)) == 0
        prompt = seen["config"]
        assert prompt.include_source_context is False
        assert prompt.include_candidate_context is False
        assert prompt.none_label == "Nothing fits"
        assert prompt.max_option_context_chars == 80
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
                "--output", str(workspace["out"] / "pred.tsv"),
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

        predictions = workspace["out"] / "pred.tsv"
        predictions.write_text("q1\tD:1\t0.900000\toption\n" + "".join(
            f"q{i}\tNONE\t0.500000\tnone\n" for i in (2, 3, 4)
        ))
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
            "--output", str(workspace["out"] / "pred.tsv"),
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
    (["evaluate", "--predictions", "{out}/absent.tsv"], ""),
    *[(["retrieve"], REMOTE + f"timeout = {bad}\n") for bad in BAD_TIMEOUTS],
    *[(["link", "--endpoint", HTTP_ENDPOINT], f"[endpoint]\ntimeout = {bad}\n")
      for bad in BAD_TIMEOUTS],
    (["retrieve", "--dim", "8"], ""),
    (["build-memory", "--dim", "8"], ""),
    *[(["evaluate", "--retrievals", "{queries}", "--ks", ks], "") for ks in ("5,1", "0", ",")],
])
def test_usage_errors_come_before_any_input_is_read(workspace, monkeypatch, argv, config):
    def unexpected(*args, **kwargs):
        raise AssertionError("an input was read before the settings were checked")

    for reader in READERS:
        monkeypatch.setattr(f"conceptlinker.cli.{reader}", unexpected)
    workspace["memory"].write_bytes(b"")
    grid = workspace["out"] / "grid.jsonl"
    grid.write_text("{}\n")
    ini = write_config(workspace, config)
    argv = [arg.format(queries=workspace["queries"], out=workspace["out"]) for arg in argv]
    inputs = ["--ontology", str(workspace["ontology"]), "--queries", str(workspace["queries"]),
              "--memory", str(workspace["memory"]), "--gold", str(workspace["gold"]),
              "--output", str(workspace["out"] / "artifact"), "--config", str(ini)]
    if argv[0] == "ablate" and "--grid" not in argv:
        inputs += ["--grid", str(grid)]
    assert main(argv + inputs) == 2


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
    ["link", "--endpoint", "mock:keyword", *fixtures, "--output", out + "/recorded.tsv"],
    ["link", *fixtures, "--output", out + "/replayed.tsv"],
    ["evaluate", "--predictions", out + "/replayed.tsv"],
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
    assert (tmp_path / "recorded.tsv").read_bytes() == (tmp_path / "replayed.tsv").read_bytes()
