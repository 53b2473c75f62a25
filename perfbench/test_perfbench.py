"""Tests of the benchmark itself: ``pytest perfbench/`` (about 10 s).

The smoke run executes every workload at tiny scale with tracing on, so
it exercises the whole path the timed runs take: child processes, the
correctness gate, the traced rep and the ledger.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    results = json.loads((out / "results.json").read_text())
    return lines, json.loads(lines[-1]), results


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke):
    lines, _final, _results = smoke
    printed = {tuple(line.split()[:2]): line.split()[3:] for line in lines
               if not line.startswith(("#", "{"))}
    for workload in WORKLOADS:
        for entry in SPEC["end_to_end"]:
            assert printed[(workload, entry["name"])] == [entry["unit"]]


def test_last_line_carries_every_per_layer_metric(smoke):
    _lines, final, _results = smoke
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    expected = {
        f"{workload}/{entry['name']}" for workload in WORKLOADS for entry in SPEC["per_layer"]
    }
    assert set(final["metrics"]) == expected


def test_correctness_gate_runs_on_every_workload(smoke):
    _lines, _final, results = smoke
    for workload in WORKLOADS:
        entry = results["workloads"][workload]
        assert entry["checks"] and entry["problems"] == []


def test_ledger_self_times_sum_to_traced_wall(smoke):
    _lines, _final, results = smoke
    for workload in WORKLOADS:
        ledger = results["workloads"][workload]["ledger"]
        # Every span falls inside a traced phase: no wrapper outlives one.
        assert set(ledger["phases"]) == {"setup", "rep"}
        attributed = sum(layer["self_s"] for layer in ledger["layers"].values())
        assert attributed + ledger["unattributed_s"] == pytest.approx(
            ledger["wall_s"], rel=1e-9
        )


def test_best_of_ops_sums_each_steps_fastest_time():
    from child import best_of_ops

    assert best_of_ops([[1.0, 5.0, 2.0], [3.0, 4.0, 1.5]]) == 1.0 + 4.0 + 1.5
    assert best_of_ops([[0.02], [0.01], [0.03]]) == 0.01


def test_reference_gate_flags_a_moved_total():
    from workloads import compare_reference

    reference = {"flooding": {"unavailable_s": 10.0, "lost_s": 9.0}}
    assert compare_reference(reference, reference) == []
    moved = {"flooding": {"unavailable_s": 10.0 * (1 + 1e-8), "lost_s": 9.0}}
    assert len(compare_reference(moved, reference)) == 1


def test_missing_wrapper_target_reads_null(monkeypatch, capsys):
    monkeypatch.setattr(
        tracing, "TARGETS",
        (("repro.exec.plan", "no_such_entry_point", "routing.decide", None),),
    )
    recorder = tracing.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == {"routing.decide"}
    assert "routing.decide reads null" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("a", "b", "better", "expected"),
    [
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", "worse"),
        ([1.0, 1.01, 0.99], [0.7, 0.71, 0.69], "lower", "better"),
        ([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], "lower", "unchanged"),
        ([1.0, 1.5, 0.6, 1.2], [1.1, 1.6, 0.7, 1.3], "lower", "unresolved"),
        ([1.0, 1.5, 0.6, 1.2], [0.1, 0.2, 0.15, 0.12], "lower", "better"),
        ([10.0, 10.1, 9.9], [7.0, 7.1, 6.9], "higher", "worse"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[0] == expected
