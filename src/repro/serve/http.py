"""Minimal asyncio HTTP/1.1 front end for the reachability service.

One hand-rolled server (stdlib only -- no web framework in the image)
exposing :class:`~repro.serve.service.ReachabilityService` over TCP or
a UNIX-domain socket, plus the matching :class:`ServeClient` used by
the tests, the benchmark, and ``repro serve --self-check``.

Routes::

    GET  /reachable?u=U&v=V[&deadline_ms=D]   -> {"reachable": bool, "degraded": bool}
    GET  /successors?u=U[&deadline_ms=D]      -> {"successors": [...], "degraded": bool}
    POST /batch                                -> {"results": [...], "degraded": bool}
    GET  /healthz                              -> 200 always (liveness + component state)
    GET  /readyz                               -> 200 "ready" | 503 "degraded" | 503 "unready"
    GET  /stats                                -> telemetry snapshot
    POST /refresh                              -> trigger one breaker-guarded rebuild

Error contract -- every failure is a *structured* JSON answer, never a
traceback and never a wrong value:

* 400 -- malformed request (bad node id, bad JSON, unknown op; a
  request line without a method and a target, a bad
  ``Content-Length`` or a line over the reader's 64 KiB limit, after
  which the connection is closed)
* 404/405 -- unknown path / wrong method
* 413 -- body over :data:`MAX_REQUEST_BYTES` (connection closed)
* 431 -- more than :data:`MAX_HEADER_LINES` header lines (connection
  closed)
* 500 -- an unexpected error while answering (connection closed; the
  traceback goes to stderr)
* 503 + ``Retry-After`` -- load shed by bounded admission
* 503 -- no index available yet (initial build still failing)
* 504 -- per-request deadline expired (queue wait counts against it)

An injected ``cancelled-request`` fault aborts the one in-flight
request and drops its connection -- the server itself keeps serving.

A query's deadline runs in the connection's own task
(``asyncio.timeout``), so no Task is created per request; Python 3.10,
which lacks ``asyncio.timeout``, falls back to ``asyncio.wait_for``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import traceback
from collections.abc import Coroutine
from typing import Any, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.errors import InvalidNodeError
from repro.serve.service import (
    DeadlineExceededError,
    IndexUnavailableError,
    InvalidRequestError,
    OverloadedError,
    ReachabilityService,
)

MAX_REQUEST_BYTES = 1 << 20
"""Reject request bodies larger than this (1 MiB): bounded memory."""

MAX_HEADER_LINES = 100
"""Reject requests with more header lines than this: bounded memory
(each line is already bounded by the reader's 64 KiB limit)."""

_QUERY_ROUTES = {("GET", "/reachable"), ("GET", "/successors"), ("POST", "/batch")}

_T = TypeVar("_T")

if sys.version_info >= (3, 11):

    async def _within(seconds: float, query: Coroutine[Any, Any, _T]) -> _T:
        """Await ``query`` in the calling task; ``TimeoutError`` after ``seconds``."""
        async with asyncio.timeout(seconds):
            return await query

else:

    async def _within(seconds: float, query: Coroutine[Any, Any, _T]) -> _T:
        """Await ``query`` under ``wait_for`` (a Task per call: 3.10 only)."""
        return await asyncio.wait_for(query, timeout=seconds)


class _RejectedRequest(InvalidRequestError):
    """A request to answer with ``status`` (detail: ``str()``), then hang up on."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


def _first(params: dict[str, list[str]], name: str) -> str | None:
    values = params.get(name)
    return values[0] if values else None


class ServeServer:
    """The asyncio HTTP server; bind via TCP ``host:port`` or ``uds`` path."""

    def __init__(
        self,
        service: ReachabilityService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        uds: str | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.uds = uds
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        if self.uds is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.uds
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def endpoint(self) -> str:
        """Human-readable bound address (for logs and the CLI banner)."""
        if self.uds is not None:
            return f"unix:{self.uds}"
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection / request plumbing ----------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RejectedRequest as exc:
                    self.service.telemetry.bump("invalid_requests")
                    self._write_response(
                        writer, exc.status, {"error": str(exc)}, {}, keep_alive=False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    status, payload, extra = await self._dispatch(method, target, body)
                except asyncio.CancelledError:
                    # An injected cancelled-request fault (or a genuine
                    # shutdown) killed this request mid-flight: count it,
                    # drop the connection, never emit a partial answer.
                    self.service.telemetry.bump("cancelled")
                    break
                except Exception as exc:
                    # A fault in the server itself: report it, answer a
                    # structured 500 and hang up -- the server keeps
                    # serving its other connections.
                    self.service.telemetry.bump("errors")
                    traceback.print_exc(file=sys.stderr)
                    error = {"error": f"internal server error ({type(exc).__name__})"}
                    self._write_response(writer, 500, error, {}, keep_alive=False)
                    await writer.drain()
                    break
                self._write_response(writer, status, payload, extra, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels idle connection tasks; exit quietly.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """The next request; ``None`` to end the connection without a reply.

        ``None`` means the client has gone or sent a blank request
        line.  Raises :class:`_RejectedRequest` (400) for a request line
        without a method and a target, a line over the reader's limit or
        a ``Content-Length`` that is not a non-negative integer, (431)
        for more than :data:`MAX_HEADER_LINES` header lines, and (413)
        for a body over :data:`MAX_REQUEST_BYTES`.
        """
        try:
            request_line = await reader.readline()
            if not request_line or not request_line.strip():
                return None
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                raise _RejectedRequest(
                    400, f"request line {' '.join(parts)[:80]!r} needs a method and a target"
                )
            method, target = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            for _ in range(MAX_HEADER_LINES + 1):
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip().lower()
            else:
                raise _RejectedRequest(431, f"more than {MAX_HEADER_LINES} header lines")
        except ConnectionResetError:
            return None
        except ValueError:  # readline(): a line over the reader's limit
            raise _RejectedRequest(400, "request line or header line too long") from None
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _RejectedRequest(
                400, f"Content-Length must be a non-negative integer, got {raw_length!r}"
            )
        if length > MAX_REQUEST_BYTES:
            raise _RejectedRequest(
                413, f"body of {length} bytes exceeds the {MAX_REQUEST_BYTES}-byte limit"
            )
        try:
            body = await reader.readexactly(length) if length else b""
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None  # the client closed mid-body
        return method, target, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 413: "Payload Too Large",
                   431: "Request Header Fields Too Large",
                   500: "Internal Server Error",
                   503: "Service Unavailable", 504: "Gateway Timeout"}
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)

    # -- routing --------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        split = urlsplit(target)
        path = split.path
        params = parse_qs(split.query)

        if path == "/healthz":
            return 200, self.service.health(), {}
        if path == "/readyz":
            state = self.service.state
            return (200 if state == "ready" else 503), {"state": state}, {}
        if path == "/stats":
            return 200, self.service.stats(), {}
        if path == "/refresh" and method == "POST":
            rebuilt = await self.service.build()
            return 200, {"rebuilt": rebuilt, "state": self.service.state}, {}

        known_paths = {"/reachable", "/successors", "/batch"}
        if path not in known_paths:
            return 404, {"error": f"unknown path {path!r}"}, {}
        if (method, path) not in _QUERY_ROUTES:
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return await self._dispatch_query(method, path, params, body)

    async def _dispatch_query(
        self, method: str, path: str, params: dict[str, list[str]], body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        service = self.service
        service.telemetry.bump("requests")
        started = time.perf_counter()
        deadline_ms = service.config.deadline_ms
        raw_deadline = _first(params, "deadline_ms")
        try:
            if raw_deadline is not None:
                deadline_ms = float(raw_deadline)
                if deadline_ms <= 0:
                    raise InvalidRequestError(
                        f"deadline_ms must be > 0, got {raw_deadline!r}"
                    )
            payload = await _within(
                deadline_ms / 1e3, self._run_query(path, params, body, deadline_ms)
            )
        except (InvalidNodeError, InvalidRequestError, json.JSONDecodeError) as exc:
            service.telemetry.bump("invalid_requests")
            return 400, {"error": str(exc)}, {}
        except OverloadedError as exc:
            return (
                503,
                {"error": str(exc), "shed": True},
                {"Retry-After": f"{max(0.001, exc.retry_after):.3f}"},
            )
        except IndexUnavailableError as exc:
            return 503, {"error": str(exc)}, {}
        except (DeadlineExceededError, asyncio.TimeoutError) as exc:
            service.telemetry.bump("deadline_timeouts")
            detail = str(exc) or f"deadline of {deadline_ms:g}ms expired"
            return 504, {"error": detail, "deadline_ms": deadline_ms}, {}
        service.telemetry.bump("answered")
        if payload.get("degraded"):
            service.telemetry.bump("degraded_answers")
        service.telemetry.observe_latency(time.perf_counter() - started)
        return 200, payload, {}

    async def _run_query(
        self, path: str, params: dict[str, list[str]], body: bytes, deadline_ms: float
    ) -> dict[str, Any]:
        service = self.service
        async with service.admitted():
            if path == "/reachable":
                return await service.reachable(_first(params, "u"), _first(params, "v"))
            if path == "/successors":
                return await service.successors(_first(params, "u"))
            document = json.loads(body.decode() or "{}")
            if not isinstance(document, dict):
                raise InvalidRequestError("batch body must be a JSON object")
            deadline_at = service.clock() + deadline_ms / 1e3
            return await service.batch(document.get("queries", []), deadline_at)


class ServeClient:
    """Tiny keep-alive HTTP client for the serve endpoints (tests/bench/CLI)."""

    def __init__(
        self, *, host: str = "127.0.0.1", port: int = 0, uds: str | None = None
    ) -> None:
        self.host = host
        self.port = port
        self.uds = uds
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None or self._writer.is_closing():
            if self.uds is not None:
                self._reader, self._writer = await asyncio.open_unix_connection(
                    self.uds
                )
            else:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
        return self._reader, self._writer

    async def request(
        self, method: str, target: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        """One round-trip; returns ``(status, headers, json_payload)``."""
        payload = (
            json.dumps(body, separators=(",", ":")).encode()
            if body is not None
            else b""
        )
        for attempt in (1, 2):
            reader, writer = await self._connect()
            head = [
                f"{method} {target} HTTP/1.1",
                "Host: repro-serve",
                f"Content-Length: {len(payload)}",
                "Connection: keep-alive",
            ]
            try:
                writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
                await writer.drain()
                return await self._read_response(reader)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                # The server drops connections on injected cancellation;
                # reconnect once, then let the failure surface.
                await self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        status_line = await reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b"{}"
        return status, headers, json.loads(raw.decode() or "{}")

    async def close(self) -> None:
        """Close the kept-alive connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._reader = None
        self._writer = None

    # -- endpoint conveniences -------------------------------------------------

    async def reachable(
        self, u: int, v: int, deadline_ms: float | None = None
    ) -> tuple[int, dict[str, Any]]:
        target = f"/reachable?u={u}&v={v}"
        if deadline_ms is not None:
            target += f"&deadline_ms={deadline_ms:g}"
        status, _, payload = await self.request("GET", target)
        return status, payload

    async def successors(self, u: int) -> tuple[int, dict[str, Any]]:
        status, _, payload = await self.request("GET", f"/successors?u={u}")
        return status, payload

    async def batch(
        self, queries: list[dict[str, Any]], deadline_ms: float | None = None
    ) -> tuple[int, dict[str, Any]]:
        target = "/batch"
        if deadline_ms is not None:
            target += f"?deadline_ms={deadline_ms:g}"
        status, _, payload = await self.request(
            "POST", target, body={"queries": queries}
        )
        return status, payload

    async def get(self, path: str) -> tuple[int, dict[str, Any]]:
        status, _, payload = await self.request("GET", path)
        return status, payload

    async def refresh(self) -> tuple[int, dict[str, Any]]:
        status, _, payload = await self.request("POST", "/refresh")
        return status, payload
