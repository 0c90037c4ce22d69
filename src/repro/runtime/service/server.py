"""The `repro serve` network frontends: HTTP control/ingest + TCP ingest.

Deliberately dependency-free: a minimal HTTP/1.1 implementation over
``asyncio`` streams (every response is ``Connection: close``) and a
newline-delimited-JSON TCP listener. Anything that can block — admission
in *block* mode waits on the worker draining a full queue — runs in the
default executor so the event loop stays responsive.

Control API (JSON in/out)::

    GET    /healthz               liveness + drain state
    GET    /metrics               server-wide counters + ingest tracker
    GET    /jobs                  list jobs
    POST   /jobs                  submit (catalog names / inline patterns)
    GET    /jobs/{id}             one job's status (id or unique name)
    DELETE /jobs/{id}             cancel
    DELETE /jobs/{id}/tenants/{q} cancel one tenant of a shared-scan group
    POST   /jobs/{id}/flush       force a processing round
    GET    /jobs/{id}/metrics     repro.metrics/v1 report + service section
    GET    /jobs/{id}/checkpoints checkpoint chain + coordinator counters
    GET    /jobs/{id}/matches     canonical match keys per query
    POST   /ingest                NDJSON event batch (same lines as TCP)
    POST   /drain                 graceful drain: flush + checkpoint all jobs
    POST   /shutdown              drain, then stop the server

Errors are structured documents — ``{"error": {"code": ..., "message":
..., "details": [...]}}`` with the :class:`~repro.errors.ServiceError`
status — never stack traces.

The TCP ingest protocol accepts the same NDJSON lines; malformed lines
get a ``{"error": ...}`` response line numbered from the session's first
line (the connection stays open), ``{"op": "sync"}`` answers with a
``{"sync": ...}`` summary barrier covering every earlier line, and
``{"op": "bye"}`` or EOF ends the session.

Both transports ingest in blocks through one path, :meth:`ReproService
._apply_lines`: each TCP read (whatever the socket has buffered, up to
64 KiB, with a partial last line carried to the next read) or each
``POST /ingest`` body is decoded and applied in one executor hop, and
every run of events in it is admitted, WAL-logged and queued as one
block by :meth:`~repro.runtime.service.jobs.JobManager.ingest_block`.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.asp.datamodel import Event
from repro.errors import ServiceError
from repro.runtime.service.events import WireError, parse_wire_line
from repro.runtime.service.jobs import JobManager, ServiceConfig

#: The most bytes one TCP read takes: one block of lines, one executor
#: hop. A line longer than this ends the session with an error line.
_READ_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _http_response(status: int, body: dict[str, Any]) -> bytes:
    payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload


class ReproService:
    """One server instance: a :class:`JobManager` plus its listeners."""

    def __init__(
        self,
        manager: JobManager | None = None,
        host: str = "127.0.0.1",
        http_port: int = 0,
        tcp_port: int = 0,
    ):
        self.manager = manager or JobManager()
        self.host = host
        self.http_port = http_port
        self.tcp_port = tcp_port
        self.shutdown_event: asyncio.Event | None = None
        self._servers: list[asyncio.base_events.Server] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners and start the manager's worker thread."""
        self.shutdown_event = asyncio.Event()
        self.manager.start()
        http_server = await asyncio.start_server(
            self._handle_http, self.host, self.http_port
        )
        tcp_server = await asyncio.start_server(
            self._handle_tcp, self.host, self.tcp_port
        )
        self._servers = [http_server, tcp_server]
        self.http_port = http_server.sockets[0].getsockname()[1]
        self.tcp_port = tcp_server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        assert self.shutdown_event is not None, "call start() first"
        await self.shutdown_event.wait()
        await self.aclose()

    async def aclose(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        self.manager.stop()

    def request_shutdown(self) -> None:
        if self.shutdown_event is not None:
            self.shutdown_event.set()

    # -- HTTP --------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._http_request(reader)
            writer.write(_http_response(status, body))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _http_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        request_line = (await reader.readline()).decode("ascii", "replace").strip()
        if not request_line:
            return 400, {"error": {"code": "bad-request", "message": "empty request"}}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {
                "error": {"code": "bad-request", "message": "malformed request line"}
            }
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        content_length = 0
        while True:
            header = (await reader.readline()).decode("ascii", "replace").strip()
            if not header:
                break
            if header.lower().startswith("content-length:"):
                try:
                    content_length = int(header.split(":", 1)[1].strip())
                except ValueError:
                    return 400, {
                        "error": {
                            "code": "bad-request",
                            "message": "invalid Content-Length",
                        }
                    }
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        try:
            return await self._route(method, path, body)
        except ServiceError as exc:
            return exc.status, {"error": exc.as_dict()}
        except WireError as exc:
            return 400, {"error": exc.as_dict()}
        except Exception as exc:  # noqa: BLE001 — the API never leaks tracebacks
            print(f"repro serve: internal error on {method} {path}: {exc!r}",
                  file=sys.stderr)
            return 500, {
                "error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}
            }

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        loop = asyncio.get_running_loop()
        manager = self.manager
        segments = [s for s in path.split("/") if s]

        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "draining": manager.draining,
                "jobs": len(manager.jobs),
            }
        if path == "/metrics" and method == "GET":
            return 200, manager.server_metrics()
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": manager.list_jobs()}
        if path == "/jobs" and method == "POST":
            request = self._json_body(body)
            info = await loop.run_in_executor(None, manager.submit, request)
            return 200, info
        if path == "/ingest" and method == "POST":
            summary = _new_summary()
            await loop.run_in_executor(
                None, self._apply_lines, body.split(b"\n"), summary
            )
            return (400 if summary["errors"] else 200), summary
        if path == "/drain" and method == "POST":
            result = await loop.run_in_executor(None, manager.drain)
            return 200, result
        if path == "/shutdown" and method == "POST":
            await loop.run_in_executor(None, manager.drain)
            self.request_shutdown()
            return 200, {"status": "shutting-down"}

        if len(segments) >= 2 and segments[0] == "jobs":
            job_id = segments[1]
            tail = segments[2] if len(segments) > 2 else None
            if tail is None and method == "GET":
                return 200, manager.job_status(job_id)
            if tail is None and method == "DELETE":
                return 200, await loop.run_in_executor(None, manager.cancel, job_id)
            if tail == "flush" and method == "POST":
                manager.flush(job_id)
                return 200, {"status": "flush-requested", "job": job_id}
            if tail == "metrics" and method == "GET":
                return 200, await loop.run_in_executor(
                    None, manager.job_metrics, job_id
                )
            if tail == "checkpoints" and method == "GET":
                return 200, await loop.run_in_executor(
                    None, manager.job_checkpoints, job_id
                )
            if tail == "matches" and method == "GET":
                return 200, await loop.run_in_executor(
                    None, manager.job_matches, job_id
                )
            if (
                tail == "tenants"
                and len(segments) == 4
                and method == "DELETE"
            ):
                return 200, await loop.run_in_executor(
                    None, manager.cancel_tenant, job_id, segments[3]
                )
        return 404, {
            "error": {"code": "not-found", "message": f"no route {method} {path}"}
        }

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        if not body:
            raise ServiceError("bad-request", "request body must be JSON")
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError("bad-request", f"body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ServiceError("bad-request", "body must be a JSON object")
        return doc

    def _apply_lines(
        self, lines: list[bytes], summary: dict[str, Any], first_line: int = 1
    ) -> tuple[bytes, bool]:
        """Decode NDJSON lines and apply them in order; runs in the executor.

        Each run of events between two other messages is ingested as one
        block. Returns the reply lines for the TCP peer — error lines and
        ``sync`` summaries, in line order — and whether a ``bye`` ended
        the session (lines after it are not applied).
        """
        replies: list[str] = []
        run: list[tuple[Event, str | None, int | None]] = []
        for number, raw in enumerate(lines, start=first_line):
            if not raw.strip():
                continue
            try:
                message = parse_wire_line(raw)
            except WireError as exc:
                error = {"line": number, **exc.as_dict()}
                summary["errors"].append(error)
                replies.append(json.dumps({"error": error}))
                continue
            if message["kind"] == "event":
                run.append((message["event"], message["source"], message["seq"]))
                continue
            self._ingest_run(run, summary)
            run = []
            if message["kind"] == "watermark":
                self.manager.heartbeat(message["source"], message["ts"])
                summary["watermarks"] += 1
            elif message["op"] == "sync":
                # Cap rejection detail so the barrier stays small.
                doc = dict(summary)
                doc["rejections"] = doc["rejections"][-20:]
                doc["errors"] = doc["errors"][-20:]
                replies.append(json.dumps({"sync": doc}))
            else:  # bye
                return _encode(replies), True
        self._ingest_run(run, summary)
        return _encode(replies), False

    def _ingest_run(
        self, run: list[tuple[Event, str | None, int | None]], summary: dict[str, Any]
    ) -> None:
        if not run:
            return
        for outcome in self.manager.ingest_block(run):
            if outcome.get("duplicate"):
                summary["duplicates"] += 1
                continue
            summary["accepted"] += outcome["accepted"]
            for rejection in outcome.get("rejections", ()):
                summary["rejected"] += 1
                summary["rejections"].append(rejection)

    # -- TCP ingest --------------------------------------------------------

    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One ingest session: every read becomes one block of lines.

        A read takes whatever the socket has buffered, up to
        ``_READ_BYTES``; its complete lines go to the executor in one hop
        (admission in *block* mode parks that thread, so other
        connections keep flowing), and a partial last line waits for the
        next read. At EOF the partial line is applied as it stands.
        """
        loop = asyncio.get_running_loop()
        summary = _new_summary()
        pending = b""
        line_number = 0
        try:
            while True:
                data = await reader.read(_READ_BYTES)
                if not data and not pending:
                    break
                lines = (pending + data).split(b"\n")
                pending = lines.pop() if data else b""
                replies, bye = b"", False
                if lines:
                    replies, bye = await loop.run_in_executor(
                        None, self._apply_lines, lines, summary, line_number + 1
                    )
                    line_number += len(lines)
                if len(pending) > _READ_BYTES:
                    replies += _encode([json.dumps({"error": {
                        "line": line_number + 1,
                        "code": "line-too-long",
                        "message": f"line exceeds {_READ_BYTES} bytes",
                    }})])
                    bye = True
                if replies:
                    writer.write(replies)
                    await writer.drain()
                if bye or not data:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def _new_summary() -> dict[str, Any]:
    return {
        "accepted": 0,
        "rejected": 0,
        "duplicates": 0,
        "watermarks": 0,
        "errors": [],
        "rejections": [],
    }


def _encode(replies: list[str]) -> bytes:
    return "".join(reply + "\n" for reply in replies).encode("utf-8")


@dataclass
class ServiceHandle:
    """A running service in a background thread (tests, CLI, smoke)."""

    service: ReproService
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    host: str = "127.0.0.1"
    http_port: int = 0
    tcp_port: int = 0
    _stopped: bool = field(default=False, repr=False)

    @property
    def manager(self) -> JobManager:
        return self.service.manager

    @property
    def http_url(self) -> str:
        return f"http://{self.host}:{self.http_port}"

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.loop.call_soon_threadsafe(self.service.request_shutdown)
        self.thread.join(timeout=timeout)


def start_in_thread(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    http_port: int = 0,
    tcp_port: int = 0,
) -> ServiceHandle:
    """Boot a full service in a daemon thread; returns once it is bound."""
    service = ReproService(
        JobManager(config), host=host, http_port=http_port, tcp_port=tcp_port
    )
    ready = threading.Event()
    box: dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            loop.run_until_complete(service.start())
            ready.set()
            loop.run_until_complete(service.serve_until_shutdown())
        finally:
            if not ready.is_set():  # bind failed: unblock the caller
                box.setdefault("error", "service failed to start")
                ready.set()
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(timeout=10)
    if "loop" not in box or box.get("error"):
        raise ServiceError("boot", "service failed to start", status=500)
    return ServiceHandle(
        service=service,
        thread=thread,
        loop=box["loop"],
        host=host,
        http_port=service.http_port,
        tcp_port=service.tcp_port,
    )
