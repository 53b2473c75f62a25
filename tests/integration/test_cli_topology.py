"""`repro topology` subcommands and --topology-* evaluation overrides."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.topogen import GeneratedTopology, generate_topology


class TestGenerate:
    def test_stdout_is_the_exact_artifact_bytes(self, capsys):
        code = main(
            ["topology", "generate", "--family", "waxman", "--size", "30",
             "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == generate_topology("waxman", 30, 2).to_json()

    def test_stdout_is_byte_stable_across_runs(self, capsys):
        argv = ["topology", "generate", "--family", "isp-hier", "--size",
                "50", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_writes_loadable_artifact(self, tmp_path, capsys):
        path = tmp_path / "topo.json"
        code = main(
            ["topology", "generate", "--family", "random-geo", "--size",
             "20", "--seed", "1", "--out", str(path)]
        )
        assert code == 0
        loaded = GeneratedTopology.load(path)
        assert loaded == generate_topology("random-geo", 20, 1)
        summary = capsys.readouterr().out
        assert loaded.digest[:12] in summary

    def test_seed_defaults_to_zero(self, capsys):
        parsed = build_parser().parse_args(
            ["topology", "generate", "--family", "waxman", "--size", "30"]
        )
        assert parsed.seed == 0


class TestInfo:
    def test_info_from_triple(self, capsys):
        code = main(
            ["topology", "info", "--family", "isp-hier", "--size", "50",
             "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        artifact = generate_topology("isp-hier", 50, 7)
        assert artifact.name in out
        assert artifact.digest in out
        assert "nodes:" in out and "links:" in out
        assert "degree:" in out and "latency:" in out

    def test_info_from_file(self, tmp_path, capsys):
        artifact = generate_topology("random-geo", 20, 1)
        path = artifact.dump(tmp_path / "topo.json")
        assert main(["topology", "info", str(path)]) == 0
        assert artifact.digest in capsys.readouterr().out

    def test_flows_listed_on_request(self, capsys):
        code = main(
            ["topology", "info", "--family", "random-geo", "--size", "20",
             "--seed", "1", "--flows"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "->" in out  # flow names like G3->G17

    def test_flow_count_is_the_listed_count(self, capsys):
        # A 4-site overlay has only four east-to-west pairs, not eight.
        code = main(
            ["topology", "info", "--family", "continental", "--size", "4",
             "--seed", "2", "--flows"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "default flows (4):" in out
        assert out.count("->") == 4


class TestErrors:
    def test_unknown_family_one_line(self, capsys):
        code = main(
            ["topology", "generate", "--family", "fat-tree", "--size", "50"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown topology family" in err
        assert "Traceback" not in err

    def test_size_envelope_one_line(self, capsys):
        code = main(
            ["topology", "generate", "--family", "isp-hier", "--size", "8"]
        )
        assert code == 2
        assert "supports sizes" in capsys.readouterr().err

    def test_info_path_and_family_conflict(self, tmp_path, capsys):
        path = generate_topology("random-geo", 20, 1).dump(tmp_path / "t.json")
        code = main(
            ["topology", "info", str(path), "--family", "waxman", "--size",
             "30"]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_info_needs_some_source(self, capsys):
        assert main(["topology", "info"]) == 2
        assert "artifact path or --family" in capsys.readouterr().err

    def test_info_corrupt_artifact_one_line(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        document = json.loads(generate_topology("random-geo", 20, 1).to_json())
        document["digest"] = "0" * 64
        path.write_text(json.dumps(document) + "\n")
        assert main(["topology", "info", str(path)]) == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_evaluate_unknown_family_one_line(self, capsys):
        code = main(
            ["evaluate", "--weeks", "0.01", "--topology-family", "fat-tree",
             "--topology-size", "50"]
        )
        assert code == 2
        assert "unknown topology family" in capsys.readouterr().err


class TestEvaluateOverride:
    @pytest.mark.slow
    def test_evaluate_on_generated_topology(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--weeks", "0.05", "--seed", "3",
             "--topology-family", "random-geo", "--topology-size", "20",
             "--topology-seed", "4", "--schemes", "targeted",
             "--no-cache", "--trace", "--trace-out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generated topology topogen-random-geo-20-s4" in out
        assert "timings:" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        extra = manifest["extra"]
        assert extra["generated_topology"]["name"] == "topogen-random-geo-20-s4"
        assert set(extra["timings"]) >= {
            "resolve_topology_s", "build_timeline_s", "replay_s",
        }
