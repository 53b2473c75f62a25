"""``repro chaos`` and ``repro client chaos`` run one chaos pipeline.

The local command runs the daemon's chaos request in-process, so the two
front ends must agree on the fault schedule, its size, and every table
row, and they must reject the same bad requests with the same one-line
error.  The local stdout is pinned byte for byte by the golden files.
The bad-request tests cover the two evaluate front ends as well.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.serve import ChaosRequest
from repro.serve.session import execute_request
from repro.serve.state import ServeRuntime

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "chaos_seed7": (
        ["--seed", "7", "--duration", "30"],
        ChaosRequest(seed=7, duration_s=30.0),
    ),
    "chaos_srlg3": (
        [
            "--scenario-family",
            "srlg-outage",
            "--scenario-seed",
            "3",
            "--duration",
            "30",
        ],
        ChaosRequest(
            scenario_family="srlg-outage", scenario_seed=3, duration_s=30.0
        ),
    ),
}

# The same commands against the daemon; port 1 is never reached because
# a bad request fails while it is being built.  The lengths are short, so
# a front end that ran the defaults instead would still finish quickly.
FRONT_ENDS = (
    ["chaos", "--duration", "5"],
    ["client", "chaos", "--port", "1"],
    ["evaluate", "--weeks", "0.002"],
    ["client", "evaluate", "--port", "1"],
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_local_and_served_chaos_agree(name, capsys):
    argv, request = CASES[name]
    code = main(["chaos", *argv])
    stdout = capsys.readouterr().out
    assert stdout == (GOLDEN / f"{name}.txt").read_text()

    payload, _manifest = execute_request(
        ServeRuntime(use_disk_cache=False), request, "req-front-ends", lambda _: None
    )
    header, blank, _columns, *table = stdout.splitlines()
    assert blank == ""
    assert header.endswith(
        f", {payload['faults']} fault(s), schedule {payload['schedule']}"
    )
    assert [line.split() for line in table] == [
        [
            row["scheme"],
            row["flow"],
            str(row["sent"]),
            str(row["on_time"]),
            f"{row['on_time_fraction']:.3f}",
            str(row["violations"]),
        ]
        for row in payload["rows"]
    ]
    assert code == (1 if payload["violations"] else 0)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_empty_scheme_list_is_an_error(front_end, capsys):
    # An explicitly empty list is an error, never "use the defaults".
    for field in ("schemes", "flows"):
        code = main([*front_end, f"--{field}", ","])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{field} must be a non-empty list of names, got ()" in captured.err
        assert captured.err.count("\n") == 1
        assert "scheme " not in captured.out  # no table: nothing ran


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_repeated_scheme_is_an_error(front_end, capsys):
    code = main([*front_end, "--schemes", "targeted,,targeted"])
    captured = capsys.readouterr()
    assert code == 2
    assert "schemes must be distinct, got ('targeted', 'targeted')" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
