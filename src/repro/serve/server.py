"""The evaluation daemon: asyncio HTTP on localhost, stdlib only.

One long-lived process serves evaluation, classification, and chaos
requests as JSON over a minimal HTTP/1.1 surface:

* ``POST /v1/submit`` -- submit one request document
  (:mod:`repro.serve.schema`); the response is a chunked JSONL event
  stream: ``accepted``, ``progress``..., ``result``, and finally the
  run ``manifest`` (or a terminal ``error``).  Requests that fail
  admission control are answered ``429``/``503`` with a ``Retry-After``
  hint and never enter the stream;
* ``GET /v1/status`` -- scheduler depth, request counters, and the
  server-lifetime cache statistics as one JSON object;
* ``POST /v1/shutdown`` -- graceful drain (finish everything admitted,
  reject the rest), then stop; the response arrives once drained.
  SIGTERM/SIGINT trigger the same path.

Requests execute in worker threads (``asyncio.to_thread``) against the
shared :class:`~repro.serve.state.ServeRuntime`, so the probability
memo, mask-classification cache, and content-addressed exec shard cache
stay warm across requests.  The event loop owns all scheduling state
and all ``serve.*`` metrics; worker threads communicate progress back
through a thread-safe queue, which keeps the observability registry
single-writer and race-free.
"""

from __future__ import annotations

import asyncio
import errno
import json
import math
import threading
import time
from dataclasses import dataclass
from itertools import count

from repro.obs import Observability, RunManifest
from repro.obs.expose import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.expose import render_exposition
from repro.serve.scheduler import RequestRejected, Scheduler
from repro.serve.schema import PROTOCOL_VERSION, make_event, parse_request
from repro.serve.session import execute_request
from repro.serve.state import ServeRuntime
from repro.util.logging import get_logger
from repro.util.validation import ValidationError

__all__ = ["DEFAULT_PORT", "ServeConfig", "EvalServer", "ServerThread", "serve_main"]

_LOG = get_logger("serve")

#: Default TCP port of the evaluation daemon (``repro serve --port``).
DEFAULT_PORT = 8787

#: Hard ceiling on request-document size; far above any legitimate request.
_MAX_BODY_BYTES = 1 << 20

#: Per-read timeout while parsing a request (slowloris guard).
_READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Sentinel closing a request's progress queue.
_DONE = object()

#: The request outcomes counted as ``serve.requests.<outcome>``.
_OUTCOMES = ("completed", "failed", "rejected")


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs (the CLI flags of ``repro serve``)."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT  # 0 = ephemeral (tests and benches)
    max_active: int = 2  # concurrently running requests
    max_queue: int = 8  # admitted requests waiting for a slot
    workers: int = 0  # per-request exec worker-process budget
    contexts: int = 4  # warm shard-context LRU capacity
    cache_dir: str | None = None  # shared exec shard cache location
    use_disk_cache: bool = True


class _HttpError(Exception):
    """Protocol-level failure answered with a simple JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _EventStream:
    """Chunked JSONL writer that degrades quietly on client disconnect.

    A client that goes away mid-stream must not fail the request -- the
    work is admitted and its caches stay warm either way -- so every
    write is guarded and the stream just stops transmitting.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.open = True

    async def _write(self, data: bytes) -> None:
        if not self.open:
            return
        try:
            self._writer.write(data)
            await self._writer.drain()
        except (ConnectionError, OSError):
            self.open = False

    async def head(self, status: int = 200) -> None:
        await self._write(
            _response_head(
                status,
                [
                    ("Content-Type", "application/x-ndjson"),
                    ("Transfer-Encoding", "chunked"),
                    ("Connection", "close"),
                ],
            )
        )

    async def send(self, event: dict) -> None:
        data = json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
        await self._write(b"%x\r\n%s\r\n" % (len(data), data))

    async def finish(self) -> None:
        await self._write(b"0\r\n\r\n")


def _response_head(status: int, headers: list[tuple[str, str]]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    extra_headers: list[tuple[str, str]] | None = None,
) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
        ("Connection", "close"),
    ]
    headers.extend(extra_headers or [])
    try:
        writer.write(_response_head(status, headers) + body)
        await writer.drain()
    except (ConnectionError, OSError):
        pass


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes]:
    """Parse one HTTP/1.1 request; raises :class:`_HttpError` on bad input."""

    async def read_line() -> bytes:
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError as error:
            raise _HttpError(400, "timed out reading request") from error
        if len(line) > 8192:
            raise _HttpError(400, "request line or header too long")
        return line

    request_line = (await read_line()).strip()
    if not request_line:
        raise _HttpError(400, "empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = (part.decode("latin-1") for part in parts)
    headers: dict[str, str] = {}
    for _ in range(64):
        line = await read_line()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    raw_length = headers.get("content-length", "0")
    try:
        content_length = int(raw_length)
    except ValueError as error:
        raise _HttpError(400, f"bad Content-Length {raw_length!r}") from error
    if content_length < 0 or content_length > _MAX_BODY_BYTES:
        raise _HttpError(400, f"unreasonable Content-Length {content_length}")
    body = b""
    if content_length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(content_length), timeout=_READ_TIMEOUT_S
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError) as error:
            raise _HttpError(400, "request body truncated") from error
    return method, target, headers, body


class EvalServer:
    """The daemon: admission control in front of warm-state sessions."""

    def __init__(
        self, config: ServeConfig = ServeConfig(), obs: Observability | None = None
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else Observability()
        self.runtime = ServeRuntime(
            worker_budget=config.workers,
            context_capacity=config.contexts,
            cache_dir=config.cache_dir,
            use_disk_cache=config.use_disk_cache,
        )
        self.scheduler = Scheduler(
            max_active=config.max_active,
            max_queue=config.max_queue,
            obs=self.obs,
        )
        # Registered up front: each count reads 0 until its first request.
        for outcome in _OUTCOMES:
            self.obs.metrics.counter(f"serve.requests.{outcome}")
        self._started_monotonic = time.monotonic()
        self._ids = count(1)
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._shutdown_started = False
        self._connections: set[asyncio.Task] = set()

    def request_counts(self) -> dict[str, int]:
        """Requests completed, failed and rejected so far.

        Read from the ``serve.requests.*`` counters, the one record of
        each count that ``/v1/metrics`` also serves.
        """
        return {
            outcome: int(self.obs.metrics.value(f"serve.requests.{outcome}"))
            for outcome in _OUTCOMES
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (raises ``OSError`` on a busy port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        _LOG.info("serving on %s:%d", self.config.host, self.port)

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the actual one)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    def begin_shutdown(self) -> None:
        """Start a graceful drain-then-stop (idempotent; loop thread only)."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        asyncio.get_running_loop().create_task(self._graceful_stop())

    async def _graceful_stop(self) -> None:
        await self.scheduler.drain()
        self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Serve until a shutdown (endpoint or signal) completes draining."""
        assert self._server is not None, "server not started"
        try:
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Let in-flight handlers (e.g. the shutdown response itself)
            # finish writing before the loop goes away.
            pending = {
                task
                for task in self._connections
                if task is not asyncio.current_task()
            }
            if pending:
                await asyncio.wait(pending, timeout=10.0)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                method, target, _headers, body = await _read_http_request(reader)
                await self._route(writer, method, target, body)
            except _HttpError as error:
                await _send_json(
                    writer,
                    error.status,
                    make_event("error", code=error.status, error=str(error)),
                )
                return
        except (ConnectionError, OSError):
            pass
        except Exception:  # pragma: no cover - last-resort containment
            _LOG.exception("unhandled error in connection handler")
            await _send_json(
                writer,
                500,
                make_event("error", code=500, error="internal server error"),
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._connections.discard(task)

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, target: str, body: bytes
    ) -> None:
        target = target.split("?", 1)[0]
        if target == "/v1/status":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {target}")
            await _send_json(writer, 200, self._status_payload())
        elif target == "/v1/metrics":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {target}")
            await self._handle_metrics(writer)
        elif target == "/v1/health":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {target}")
            await self._handle_health(writer)
        elif target == "/v1/submit":
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on {target}")
            await self._handle_submit(writer, body)
        elif target == "/v1/shutdown":
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on {target}")
            await self._handle_shutdown(writer)
        else:
            await _send_json(
                writer,
                404,
                make_event("error", code=404, error=f"no such endpoint {target}"),
            )

    # -- endpoints -------------------------------------------------------------

    def _status_payload(self) -> dict:
        return {
            "server": "repro-serve",
            "protocol_version": PROTOCOL_VERSION,
            "scheduler": {
                "active": self.scheduler.active,
                "queued": self.scheduler.queued,
                "max_active": self.scheduler.max_active,
                "max_queue": self.scheduler.max_queue,
                "draining": self.scheduler.draining,
            },
            "requests": self.request_counts(),
            "cache": self.runtime.cache_stats(),
        }

    async def _handle_metrics(self, writer: asyncio.StreamWriter) -> None:
        """Prometheus text exposition of the daemon's live registry."""
        self._mirror_cache_gauges()
        self.obs.metrics.gauge("serve.uptime_s").set(
            time.monotonic() - self._started_monotonic
        )
        body = render_exposition(self.obs.metrics).encode("utf-8")
        try:
            writer.write(
                _response_head(
                    200,
                    [
                        ("Content-Type", METRICS_CONTENT_TYPE),
                        ("Content-Length", str(len(body))),
                        ("Connection", "close"),
                    ],
                )
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _handle_health(self, writer: asyncio.StreamWriter) -> None:
        """Liveness (we answered) + readiness (not draining -> 200)."""
        draining = self.scheduler.draining or self._shutdown_started
        await _send_json(
            writer,
            503 if draining else 200,
            {
                "status": "draining" if draining else "ok",
                "draining": draining,
                "active": self.scheduler.active,
                "queued": self.scheduler.queued,
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
            },
        )

    async def _handle_shutdown(self, writer: asyncio.StreamWriter) -> None:
        _LOG.info("shutdown requested; draining %d request(s)", self.scheduler.depth)
        self.begin_shutdown()
        await self._stopped.wait()
        await _send_json(
            writer,
            200,
            make_event("shutdown", drained=True, **self.request_counts()),
        )

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await _send_json(
                writer,
                400,
                make_event(
                    "error", code=400,
                    error=f"request body is not valid JSON: {error}",
                ),
            )
            return
        try:
            request = parse_request(payload)
        except ValidationError as error:
            self.obs.metrics.counter("serve.requests.invalid").inc()
            await _send_json(
                writer, 400, make_event("error", code=400, error=str(error))
            )
            return
        request_id = f"r{next(self._ids)}"
        admit_from = self.obs.tracer.now()
        try:
            async with self.scheduler.slot():
                admitted_at = self.obs.tracer.now()
                self.obs.tracer.ring_only(
                    "request.queued", "serve", admit_from, admitted_at,
                    request_id=request_id, kind=request.kind,
                )
                self.obs.metrics.counter("serve.requests.accepted").inc()
                self.obs.metrics.counter(
                    f"serve.requests.accepted.{request.kind}"
                ).inc()
                await self._run_admitted(writer, request, request_id)
        except RequestRejected as rejected:
            self.obs.metrics.counter("serve.requests.rejected").inc()
            _LOG.info(
                "rejected %s request (%s; retry in %.1fs)",
                request.kind, rejected.reason, rejected.retry_after_s,
            )
            await _send_json(
                writer,
                rejected.status,
                make_event(
                    "rejected",
                    reason=rejected.reason,
                    retry_after_s=rejected.retry_after_s,
                ),
                extra_headers=[
                    ("Retry-After", str(math.ceil(rejected.retry_after_s)))
                ],
            )

    async def _run_admitted(
        self, writer: asyncio.StreamWriter, request, request_id: str
    ) -> None:
        stream = _EventStream(writer)
        await stream.head(200)
        await stream.send(
            make_event(
                "accepted",
                request_id=request_id,
                kind=request.kind,
                queue_depth=self.scheduler.depth,
            )
        )
        loop = asyncio.get_running_loop()
        progress: asyncio.Queue = asyncio.Queue()

        def emit(event: dict) -> None:
            loop.call_soon_threadsafe(progress.put_nowait, event)

        pump = asyncio.create_task(self._pump_events(progress, stream))
        run_from = self.obs.tracer.now()
        failure: Exception | None = None
        outcome: tuple[dict, RunManifest] | None = None
        try:
            outcome = await asyncio.to_thread(
                execute_request, self.runtime, request, request_id, emit
            )
        except ValidationError as error:
            failure = error
        except Exception as error:  # noqa: BLE001 - contained per request
            _LOG.exception("request %s failed", request_id)
            failure = error
        finally:
            progress.put_nowait(_DONE)
            await pump
        run_until = self.obs.tracer.now()
        self.obs.tracer.ring_only(
            "request.run", "serve", run_from, run_until,
            request_id=request_id, kind=request.kind,
        )
        self.obs.metrics.histogram("serve.request_wall_s").observe(
            run_until - run_from
        )
        if failure is not None or outcome is None:
            self.obs.metrics.counter("serve.requests.failed").inc()
            code = 400 if isinstance(failure, ValidationError) else 500
            await stream.send(
                make_event("error", code=code, error=str(failure))
            )
            await stream.finish()
            return
        result_payload, manifest = outcome
        self.obs.metrics.counter("serve.requests.completed").inc()
        self._refresh_cache_metrics(manifest)
        for row in result_payload.get("schemes", ()):
            availability = row.get("availability")
            if availability is not None:
                self.obs.metrics.histogram("serve.on_time_fraction").observe(
                    float(availability)
                )
        manifest.metrics = {
            name: summary
            for name, summary in self.obs.metrics.summarize().items()
            if name.startswith("serve.")
        }
        await stream.send(make_event("result", data=result_payload))
        await stream.send(make_event("manifest", data=manifest.to_dict()))
        await stream.finish()

    async def _pump_events(
        self, progress: asyncio.Queue, stream: _EventStream
    ) -> None:
        """Forward worker-thread progress events to the client as they occur."""
        while True:
            event = await progress.get()
            if event is _DONE:
                return
            await stream.send(event)

    def _mirror_cache_gauges(self) -> None:
        """Mirror warm-state counters into gauges (loop thread only).

        ``serve.cache.*`` carries the server-lifetime context/prob/disk
        stats (``exec.prob_cache.*`` stays a per-run counter of replays
        that record metrics).  Called after each completed request and at
        every ``/v1/metrics`` scrape, so a scrape between requests still
        sees current values.
        """
        for name, value in self.runtime.cache_stats().items():
            if isinstance(value, bool):
                continue
            self.obs.metrics.gauge(f"serve.cache.{name}").set(float(value))

    def _refresh_cache_metrics(self, manifest: RunManifest) -> None:
        """Mirror server-lifetime cache stats into ``serve.cache.*`` metrics.

        Runs on the event loop after each completed request, so the
        registry has a single writer and the manifest streamed to the
        client carries a consistent snapshot.
        """
        self._mirror_cache_gauges()
        serve_extra = manifest.extra.get("serve", {})
        shards_cached = serve_extra.get("shards_cached")
        if shards_cached:
            self.obs.metrics.counter("serve.cache.shards_cached").inc(
                shards_cached
            )


# -- entry points ------------------------------------------------------------------


async def serve_main(config: ServeConfig) -> int:
    """Blocking daemon entry point (the CLI's ``repro serve`` body)."""
    import signal

    server = EvalServer(config)
    try:
        await server.start()
    except OSError as error:
        if error.errno == errno.EADDRINUSE:
            raise ValueError(
                f"port {config.port} on {config.host} is already in use"
            ) from error
        raise
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    print(
        f"repro-serve listening on http://{config.host}:{server.port}/ "
        f"(max_active={config.max_active}, max_queue={config.max_queue}, "
        f"workers={config.workers})",
        flush=True,
    )
    await server.serve_until_stopped()
    counts = server.request_counts()
    print(
        f"drained and stopped: {counts['completed']} completed, "
        f"{counts['failed']} failed, {counts['rejected']} rejected"
    )
    return 0


class ServerThread:
    """A daemon running on a private event loop in a background thread.

    The in-process counterpart of ``repro serve`` for tests and benches:
    ``start()`` returns the bound port, ``stop()`` performs the same
    graceful drain as SIGTERM.
    """

    def __init__(
        self, config: ServeConfig = ServeConfig(port=0), obs: Observability | None = None
    ) -> None:
        self.config = config
        self.obs = obs
        self.server: EvalServer | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def start(self, timeout_s: float = 30.0) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        assert self.server is not None
        return self.port

    @property
    def port(self) -> int:
        assert self.server is not None, "server not started"
        return self._port

    def stop(self, timeout_s: float = 60.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            server = self.server

            def _shutdown() -> None:
                if server is not None:
                    server.begin_shutdown()

            try:
                self._loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:  # loop already closed
                pass
        self._thread.join(timeout_s)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - surfaced in start()
            if not self._ready.is_set():
                self._error = error
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        server = EvalServer(self.config, obs=self.obs)
        try:
            await server.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self.server = server
        self._port = server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.serve_until_stopped()
