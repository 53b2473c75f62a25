"""Command-line interface end to end."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.classify import CATEGORY_ORDER
from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("generate-trace", "evaluate", "classify", "graphs", "cache"):
            args = {
                "generate-trace": ["generate-trace", "out.jsonl"],
                "evaluate": ["evaluate"],
                "classify": ["classify"],
                "graphs": ["graphs", "NYC", "SJC"],
                "cache": ["cache", "info"],
            }[command]
            parsed = parser.parse_args(args)
            assert parsed.command == command

    def test_evaluate_exec_flags_parse(self):
        parsed = build_parser().parse_args(
            [
                "evaluate",
                "--workers",
                "4",
                "--no-cache",
                "--cache-dir",
                "/tmp/x",
            ]
        )
        assert parsed.workers == 4
        assert parsed.no_cache is True
        assert parsed.cache_dir == "/tmp/x"


class TestGraphsCommand:
    def test_prints_all_families(self, capsys):
        assert main(["graphs", "NYC", "SJC"]) == 0
        output = capsys.readouterr().out
        for family in (
            "single path",
            "two disjoint paths",
            "time-constrained flooding",
            "source-problem graph",
            "destination-problem graph",
            "robust source+destination",
        ):
            assert family in output

    @pytest.mark.parametrize(
        ("golden", "flags"),
        [
            ("graphs_NYC_SJC", []),
            # Below the shortest path: flooding is empty and every problem
            # graph keeps its unpruned fallback.
            ("graphs_NYC_SJC_1ms", ["--deadline-ms", "1"]),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, flags):
        assert main(["graphs", "NYC", "SJC", *flags]) == 0
        expected = (GOLDEN / f"{golden}.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_deadline_flag(self, capsys):
        assert main(["graphs", "NYC", "SJC", "--deadline-ms", "40"]) == 0
        narrow = capsys.readouterr().out
        main(["graphs", "NYC", "SJC", "--deadline-ms", "100"])
        wide = capsys.readouterr().out
        assert len(wide) > len(narrow)


class TestTraceCommands:
    def test_generate_then_classify(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["generate-trace", str(trace), "--weeks", "0.1", "--seed", "3"]
        ) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["classify", "--trace-file", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "destination" in output

    def test_local_classify_prints_the_served_payload(self, capsys):
        from repro.serve import ClassifyRequest
        from repro.serve.session import execute_request
        from repro.serve.state import ServeRuntime

        assert main(["classify", "--weeks", "0.5", "--seed", "7"]) == 0
        _title, _columns, _rule, *rows = capsys.readouterr().out.splitlines()
        payload, _manifest = execute_request(
            ServeRuntime(use_disk_cache=False),
            ClassifyRequest(weeks=0.5, seed=7),
            "req-classify",
            lambda _: None,
        )
        assert payload["problems"] > 0
        assert [row.split() for row in rows] == [
            [
                category,
                f"{100 * payload['distribution'].get(category, 0.0):.1f}%",
                str(payload["counts"].get(category, 0)),
            ]
            for category in CATEGORY_ORDER
        ]

    def test_classify_rejects_old_trace_spelling(self, tmp_path, capsys):
        # ``--trace`` was the pre-PR-4 spelling; classify and evaluate now
        # agree on ``--trace-file`` for condition-trace inputs.
        with pytest.raises(SystemExit):
            main(["classify", "--trace", str(tmp_path / "t.jsonl")])

    def test_evaluate_from_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["generate-trace", str(trace), "--weeks", "0.05", "--seed", "3"])
        capsys.readouterr()
        assert main(["evaluate", "--trace-file", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "targeted" in output
        assert "gap cov %" in output
        assert "msgs/pkt" in output

    def test_evaluate_exits_nonzero_on_zero_windows(self, monkeypatch, capsys):
        from repro.exec.telemetry import ExecTelemetry
        from repro.netmodel.topology import ServiceSpec
        from repro.simulation.results import ReplayConfig, ReplayResult

        def empty_replay(*_args, **_kwargs):
            return ReplayResult(ServiceSpec(), ReplayConfig()), ExecTelemetry()

        monkeypatch.setattr("repro.serve.session.run_replay_parallel", empty_replay)
        assert main(["evaluate", "--weeks", "0.01", "--seed", "5"]) == 2
        # the empty result tables must not have been printed
        assert "gap cov %" not in capsys.readouterr().out

    def test_evaluate_generates_when_no_trace(self, capsys):
        assert main(["evaluate", "--weeks", "0.02", "--seed", "5", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "flooding" in output

    def test_per_flow_tables_with_a_scheme_subset(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--weeks", "0.05", "--seed", "7", "--no-cache",
             "--schemes", "targeted,flooding,dynamic-single", "--per-flow",
             "--export-dir", str(tmp_path)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Per-flow gap coverage (%)" in output
        assert (tmp_path / "scheme_performance.csv").exists()
        header, *rows = (tmp_path / "per_flow_coverage.csv").read_text().splitlines()
        assert header == "flow,static-two-disjoint,dynamic-two-disjoint,targeted"
        # The two-disjoint schemes were not replayed: empty cells.
        assert rows and all(row.split(",")[1:3] == ["", ""] for row in rows)


class TestExecutionEngineCommands:
    EVALUATE = ["evaluate", "--weeks", "0.02", "--seed", "5", "--workers", "0"]

    @pytest.mark.parametrize(
        "names",
        (["--schemes", "targeted,targeted"], ["--flows", "NYC->LAX,NYC->LAX"]),
    )
    def test_evaluate_rejects_repeated_names(self, names, capsys):
        code = main(["evaluate", "--weeks", "0.002", "--no-cache", *names])
        err = capsys.readouterr().err
        message = {
            "--schemes": "schemes must be distinct, got ('targeted', 'targeted')",
            "--flows": "flows must be distinct, got ('NYC->LAX', 'NYC->LAX')",
        }[names[0]]
        assert code == 2
        assert message in err
        assert "missing its window records" not in err
        assert err.count("\n") == 1

    def test_client_evaluate_rejects_repeated_names(self, capsys):
        argv = ["client", "evaluate", "--schemes", "targeted,targeted"]
        assert main(argv + ["--port", "1"]) == 2
        assert "schemes must be distinct" in capsys.readouterr().err

    def test_evaluate_rejects_negative_workers(self, capsys):
        code = main(
            ["evaluate", "--weeks", "0.002", "--no-cache", "--workers", "-1",
             "--schemes", "static-single", "--flows", "NYC->LAX"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: workers must be >= 0, got -1" in captured.err
        assert "execution engine" not in captured.out

    def test_evaluate_prints_telemetry(self, tmp_path, capsys):
        argv = self.EVALUATE + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "execution engine" in output
        assert "shards run" in output
        assert "shards cached" in output

    def test_second_evaluate_hits_cache(self, tmp_path, capsys):
        argv = self.EVALUATE + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out

        def telemetry_count(output: str, label: str) -> int:
            for line in output.splitlines():
                if line.startswith(label):
                    return int(line.split()[-1])
            raise AssertionError(f"no {label!r} row in output")

        total = telemetry_count(first, "shards total")
        assert telemetry_count(first, "shards run") == total
        assert telemetry_count(second, "shards cached") == total
        assert telemetry_count(second, "shards run") == 0
        # cached and fresh replays print identical result tables
        assert first.split("execution engine")[0] == second.split("execution engine")[0]

    def test_no_cache_flag_bypasses_cache(self, tmp_path, capsys):
        argv = self.EVALUATE + ["--no-cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert not list(tmp_path.glob("*/*.json"))

    def test_evaluate_with_workers(self, tmp_path, capsys):
        argv = [
            "evaluate",
            "--weeks",
            "0.01",
            "--seed",
            "5",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "targeted" in output
        assert "execution engine" in output

    def test_evaluate_rejects_time_shards(self, capsys):
        """A pair is one shard: ``--time-shards`` is an unknown flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--weeks", "0.01", "--no-cache", "--time-shards", "2"])
        assert exit_info.value.code == 2
        assert "--time-shards" in capsys.readouterr().err

    def test_cache_info_and_clear(self, tmp_path, capsys):
        argv = self.EVALUATE + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        info = capsys.readouterr().out
        assert str(tmp_path) in info
        entries = int(
            [line for line in info.splitlines() if line.startswith("entries")][0].split()[-1]
        )
        assert entries > 0

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        cleared = capsys.readouterr().out
        assert f"removed {entries}" in cleared

        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:    0" in capsys.readouterr().out
