"""Minimal asyncio HTTP/1.1 + SSE transport for :class:`ServiceApp`.

Pure stdlib (``asyncio`` streams — no framework dependency): a small,
audited surface that decodes JSON bodies into the typed request forms of
:mod:`repro.service.protocol`, dispatches to :class:`~repro.service.app
.ServiceApp`, and encodes the typed responses back.  Versioned wire API:

=======  ============================  =====================================
Method   Path                          Meaning
=======  ============================  =====================================
GET      ``/v1/healthz``               liveness + engine summary
GET      ``/v1/ledger``                per-task budget accounting
GET      ``/v1/telemetry``             governor usage + metrics snapshot
GET      ``/v1/metrics``               Prometheus text exposition
GET      ``/v1/tasks/{name}/reports``  one tenant's retained reports
GET      ``/v1/stream``                SSE stream of ``RoundReport`` events
POST     ``/v1/tasks``                 submit an ``EstimationTask``
POST     ``/v1/rounds``                run governed estimation round(s)
POST     ``/v1/shutdown``              graceful stop (drains connections)
=======  ============================  =====================================

Concurrency: **mutating** requests (``POST /v1/tasks``, ``/v1/rounds``)
run on a dedicated single worker thread, so the event loop — and with it
every observer endpoint and SSE heartbeat — stays responsive during long
rounds (the engine's session lock/round barrier split from PR 5 is what
makes the observer calls non-blocking engine-side).  Errors map to wire
payloads and HTTP statuses in exactly one place, :mod:`repro.errors`.

SSE contract (``GET /v1/stream[?task=NAME][&replay=0]``): events carry
``id:`` (monotonic sequence), ``event: report`` and a JSON ``data:`` line
``{"seq", "task", "round_index", "report"}``; a comment heartbeat is sent
every ``heartbeat`` seconds while no report is produced.  Reports are
published as each governed round completes, so a client connected during
a long multi-round ``POST /v1/rounds`` sees earlier rounds' reports while
later rounds are still executing.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

from ..core.wire import stamp
from ..errors import (
    ReproError,
    WireFormatError,
    http_status_of,
)
from ..obs import OBS
from .app import ServiceApp
from .protocol import RoundRequest, TaskRequest, error_response

#: Largest accepted request body, bytes (we serve JSON control messages).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Most header lines one request may carry; more are answered with 431.
MAX_HEADER_LINES = 100

#: Seconds a client gets to send one whole request (line, headers, body);
#: a connection still short of that on expiry is closed without a reply.
REQUEST_READ_TIMEOUT = 30.0

#: Content type of the ``/v1/metrics`` Prometheus text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Known endpoint labels (templated), keeping metric cardinality bounded
#: no matter what paths clients probe.
_ENDPOINT_LABELS = {
    "/v1/healthz": "/v1/healthz",
    "/v1/ledger": "/v1/ledger",
    "/v1/telemetry": "/v1/telemetry",
    "/v1/tasks": "/v1/tasks",
    "/v1/rounds": "/v1/rounds",
    "/v1/shutdown": "/v1/shutdown",
}


def _endpoint_label(path: str) -> str:
    """A bounded-cardinality endpoint label for a request path."""
    known = _ENDPOINT_LABELS.get(path)
    if known is not None:
        return known
    if path.startswith("/v1/tasks/") and path.endswith("/reports"):
        return "/v1/tasks/{name}/reports"
    return "other"

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """Transport-level error (bad request line, unknown route, ...)."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


class ServiceServer:
    """One :class:`ServiceApp` served over asyncio HTTP/JSON."""

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat: float = 1.0,
    ):
        self.app = app
        self.host = host
        self.port = port
        self.heartbeat = heartbeat
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        # One worker: mutating handlers are serialized off the event loop,
        # so a long round never blocks observers or heartbeats.
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start, then run until :meth:`request_shutdown` (or the
        ``POST /v1/shutdown`` endpoint) fires; then close cleanly."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.close()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Long-lived SSE streams idle in queue.get(); cancel them so the
        # loop can wind down instead of abandoning pending tasks.
        for task in tuple(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._worker.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        # A request still incomplete when this fires is cancelled, which
        # closes its connection without a reply (a timer, not wait_for:
        # no extra task and no extra loop iterations per request).
        deadline = asyncio.get_running_loop().call_later(
            REQUEST_READ_TIMEOUT, task.cancel
        )
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._write_json(
                    writer, exc.status,
                    stamp({"error": {
                        "code": "BAD_REQUEST",
                        "error_type": "HttpError",
                        "message": str(exc),
                        "details": {},
                    }}),
                )
                return
            deadline.cancel()
            if method == "GET" and path == "/v1/stream":
                await self._stream(writer, query)
                return
            if method == "GET" and path == "/v1/metrics":
                # Served outside _dispatch so the scrape itself never
                # perturbs the request-latency histograms it reports.
                await self._write_text(
                    writer, 200, OBS.to_prometheus(),
                    PROMETHEUS_CONTENT_TYPE,
                )
                return
            if not OBS.enabled:
                status, payload = await self._dispatch(method, path, body)
            else:
                started = perf_counter()
                status, payload = await self._dispatch(method, path, body)
                endpoint = _endpoint_label(path)
                OBS.histogram(
                    "repro_http_request_seconds", {"endpoint": endpoint}
                ).observe(perf_counter() - started)
                OBS.counter(
                    "repro_http_requests_total",
                    {"endpoint": endpoint, "status": str(status)},
                ).inc()
            await self._write_json(writer, status, payload)
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down with this connection in flight
        finally:
            deadline.cancel()
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionResetError):
            raise _HttpError(400, "unreadable request line") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        content_length = 0
        for _ in range(MAX_HEADER_LINES + 1):
            try:
                line = await reader.readline()
            except ValueError:  # longer than the stream reader's limit
                raise _HttpError(400, "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
                if content_length < 0:
                    raise _HttpError(400, "bad Content-Length")
        else:
            raise _HttpError(431, "too many header lines")
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method.upper(), split.path, query, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes):
        try:
            if method == "GET":
                if path == "/v1/healthz":
                    return 200, self.app.health().to_wire()
                if path == "/v1/ledger":
                    return 200, self.app.ledger().to_wire()
                if path == "/v1/telemetry":
                    return 200, self.app.telemetry().to_wire()
                if path.startswith("/v1/tasks/") and path.endswith("/reports"):
                    name = path[len("/v1/tasks/"):-len("/reports")]
                    return 200, self.app.reports(name).to_wire()
                raise _HttpError(404, f"no route for GET {path}")
            if method == "POST":
                if path == "/v1/tasks":
                    request = TaskRequest.from_wire(self._json_body(body))
                    response = await self._in_worker(self.app.submit, request)
                    return 202, response.to_wire()
                if path == "/v1/rounds":
                    request = RoundRequest.from_wire(self._json_body(body))
                    response = await self._in_worker(
                        self.app.run_rounds, request
                    )
                    return 200, response.to_wire()
                if path == "/v1/shutdown":
                    self.request_shutdown()
                    return 202, stamp({"status": "shutting down"})
                raise _HttpError(404, f"no route for POST {path}")
            raise _HttpError(405, f"method {method} not supported")
        except _HttpError as exc:
            return exc.status, stamp({"error": {
                "code": "BAD_REQUEST",
                "error_type": "HttpError",
                "message": str(exc),
                "details": {},
            }})
        except ReproError as exc:
            return http_status_of(exc), error_response(exc)
        except Exception as exc:  # noqa: BLE001 - service boundary
            return http_status_of(exc), error_response(exc)

    def _json_body(self, body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise WireFormatError("request body must be a JSON object")
        return payload

    async def _in_worker(self, handler, request):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._worker, handler, request)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    async def _write_json(self, writer, status: int, payload: dict) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        await self._write_body(writer, status, body, "application/json")

    async def _write_text(
        self, writer, status: int, text: str, content_type: str
    ) -> None:
        await self._write_body(
            writer, status, text.encode("utf-8"), content_type
        )

    async def _write_body(
        self, writer, status: int, body: bytes, content_type: str
    ) -> None:
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    async def _stream(self, writer, query: dict) -> None:
        task_filter = query.get("task")
        replay = query.get("replay", "1") not in ("0", "false", "no")
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def listener(event: dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        backlog = self.app.subscribe(listener)
        try:
            if replay:
                for event in backlog:
                    await self._write_event(writer, event, task_filter)
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=self.heartbeat
                    )
                except asyncio.TimeoutError:
                    writer.write(b": heartbeat\n\n")
                    await writer.drain()
                    continue
                await self._write_event(writer, event, task_filter)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client closed the stream — the normal way out
        finally:
            self.app.unsubscribe(listener)

    async def _write_event(self, writer, event: dict, task_filter) -> None:
        if task_filter is not None and event["task"] != task_filter:
            return
        data = json.dumps(stamp(dict(event)), allow_nan=False)
        writer.write(
            f"id: {event['seq']}\nevent: report\ndata: {data}\n\n"
            .encode("utf-8")
        )
        await writer.drain()
