"""``repro evaluate`` and ``repro client evaluate`` run one evaluate pipeline.

The local command runs the daemon's evaluate request in-process, so every
row of the local performance table must equal the served ``schemes`` row
at the table's precision.  The local stdout up to the execution-engine
table (whose wall times vary) is pinned byte for byte by the golden files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.serve import EvaluateRequest
from repro.serve.session import execute_request
from repro.serve.state import ServeRuntime

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "evaluate_seed7": (
        ["--weeks", "0.05", "--seed", "7", "--no-cache"],
        EvaluateRequest(weeks=0.05, seed=7, use_cache=False),
    ),
    "evaluate_srlg3": (
        [
            "--weeks",
            "0.02",
            "--seed",
            "5",
            "--scenario-family",
            "srlg-outage",
            "--scenario-seed",
            "3",
            "--schemes",
            "targeted,static-single",
            "--no-cache",
        ],
        EvaluateRequest(
            weeks=0.02,
            seed=5,
            scenario_family="srlg-outage",
            scenario_seed=3,
            schemes=("targeted", "static-single"),
            use_cache=False,
        ),
    ),
}

PERFORMANCE_TITLE = "Scheme performance (all flows, whole trace)\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_local_and_served_evaluate_agree(name, capsys):
    argv, request = CASES[name]
    assert main(["evaluate", *argv]) == 0
    pinned, engine, _rest = capsys.readouterr().out.partition("execution engine")
    assert engine
    assert pinned == (GOLDEN / f"{name}.txt").read_text()

    payload, _manifest = execute_request(
        ServeRuntime(use_disk_cache=False), request, "req-front-ends", lambda _: None
    )
    header = pinned.splitlines()[0]
    assert f": {payload['events']} events over " in header
    table = pinned.split(PERFORMANCE_TITLE)[1].split("\n\n")[0]
    _columns, _rule, *rows = table.splitlines()
    # scheme, unavail s, lost s, late s, avail %, (bad pkts, gap cov %), msgs/pkt
    assert [
        (cells[0], *cells[1:5], cells[7]) for cells in map(str.split, rows)
    ] == [
        (
            row["scheme"],
            f"{row['unavailable_s']:.1f}",
            f"{row['lost_s']:.1f}",
            f"{row['late_s']:.1f}",
            f"{100 * row['availability']:.4f}",
            f"{row['average_cost_messages']:.2f}",
        )
        for row in payload["schemes"]
    ]
