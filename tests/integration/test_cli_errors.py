"""CLI error handling: bad inputs fail with messages, not tracebacks."""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.netmodel.scenarios import Scenario
from repro.util.validation import ValidationError


class TestGracefulErrors:
    def test_unknown_node_in_graphs(self, capsys):
        code = main(["graphs", "NYC", "NOWHERE"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        code = main(["evaluate", "--weeks", "0.01", "--preset", "apocalypse"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario preset" in err

    def test_missing_trace_file(self, capsys):
        code = main(["classify", "--trace-file", "/nonexistent/trace.jsonl"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_weeks_exit_at_once(self, tmp_path, capsys):
        # An infinite trace would never finish generating.
        with pytest.raises(ValidationError, match="finite"):
            Scenario(duration_s=math.inf)
        trace = tmp_path / "t.jsonl"
        assert main(["generate-trace", "--weeks", "inf", str(trace)]) == 2
        assert main(["classify", "--weeks", "inf"]) == 2
        assert capsys.readouterr().err.count("must be finite") == 2
        assert not trace.exists()

    def test_malformed_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "something-else"}\n')
        code = main(["evaluate", "--trace-file", str(bad)])
        assert code == 2
        assert "not a repro-dgraphs" in capsys.readouterr().err

    def test_unreadable_trace_path_is_one_line(self, tmp_path, capsys):
        code = main(["evaluate", "--trace-file", str(tmp_path / "missing.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_trace_path_is_a_directory(self, tmp_path, capsys):
        code = main(["evaluate", "--trace-file", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_unknown_scheme(self, capsys):
        code = main(["chaos", "--schemes", "teleportation"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scheme" in err
        assert "Traceback" not in err

    def test_chaos_unknown_flow(self, capsys):
        code = main(["chaos", "--flows", "S->NOWHERE"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown flow" in err
        assert "Traceback" not in err

    def test_chaos_impossible_spec(self, capsys):
        # Faults cannot fit in the run: duration < max fault + settle.
        code = main(["chaos", "--duration", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServeClientErrors:
    # Satellite: daemon/client failures are one-line errors, not
    # tracebacks -- busy port, unreachable server, malformed request.

    def test_serve_port_in_use(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 2
        err = capsys.readouterr().err
        assert "already in use" in err
        assert "Traceback" not in err

    def test_client_server_unreachable(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        code = main(["client", "status", "--port", str(port)])
        assert code == 2
        err = capsys.readouterr().err
        assert "server unreachable" in err
        assert "Traceback" not in err

    def test_client_malformed_request_file(self, tmp_path, capsys):
        bad = tmp_path / "request.json"
        bad.write_text("{not json")
        # The file is rejected before any connection is attempted, so a
        # dead port is fine here.
        code = main(["client", "submit", "--file", str(bad), "--port", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_client_missing_request_file(self, tmp_path, capsys):
        code = main(
            ["client", "submit", "--file", str(tmp_path / "nope.json"),
             "--port", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_client_invalid_field_value(self, capsys):
        # Schema validation fires client-side before any network use.
        code = main(["client", "evaluate", "--weeks", "-1", "--port", "1"])
        assert code == 2
        assert "weeks" in capsys.readouterr().err
