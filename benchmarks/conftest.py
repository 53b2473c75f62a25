"""Benchmark suite configuration.

Each bench regenerates one of the paper's tables/figures and prints it, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation
section end to end.  The printed output is the artifact; the timing
numbers additionally document the cost of each pipeline stage.

Every bench test also leaves a machine-readable ``BENCH_<exp>.json``
(run manifest + staged headline metrics) in ``$REPRO_BENCH_OUT``
(default ``bench-out``) -- see ``common.flush_bench_json``.  The engine
calls of the whole run record into one telemetry session, opened here;
each bench's JSON carries its share of it, and the run ends with the
session's aggregate table.
"""

import sys
from pathlib import Path

import pytest

# Make `import common` work regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).parent))


#: The run's telemetry session, kept for the closing summary.
_telemetry = None


@pytest.fixture(scope="session", autouse=True)
def _telemetry_session():
    """One telemetry session around every bench of the run."""
    global _telemetry
    from repro.exec.telemetry import telemetry_session

    with telemetry_session() as _telemetry:
        yield


@pytest.fixture(autouse=True)
def _bench_artifact(request, _telemetry_session):
    """Write ``BENCH_<exp>.json`` after every bench test, pass or fail."""
    import common

    common.begin_bench()
    yield
    exp = request.node.module.__name__.removeprefix("bench_")
    common.stage_metrics(test=request.node.name)
    common.flush_bench_json(exp)


def pytest_sessionfinish(session, exitstatus):
    """Print the execution engine's aggregate telemetry for the session."""
    total = None if _telemetry is None else _telemetry.totals()
    if total is not None:
        print("\n" + total.summary_table())
