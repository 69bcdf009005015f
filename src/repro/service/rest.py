"""Stdlib-asyncio REST control plane for the network-server daemon.

A deliberately small HTTP/1.1 server (``asyncio.start_server``; no web
framework, the container ships none) exposing the read-only operator
surface of :class:`~repro.service.daemon.NetworkServerDaemon`:

* ``GET /healthz`` -- liveness, uptime, queue depth, gateway sessions;
* ``GET /devices/{addr}`` -- one device's FB profile, ADR state, and
  last verdict (``addr`` in hex, e.g. ``26000000``);
* ``GET /verdicts?offset=0&limit=100`` -- the verdict log, paged;
* ``GET /metrics`` -- Prometheus text exposition;
* ``GET /alerts`` -- a ``text/event-stream`` that emits one SSE event
  per ``attack_detected`` verdict, as it happens.

Every JSON body serializes floats via :func:`json.dumps` (repr-exact),
so the control plane reports the very numbers the server computed.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.daemon import NetworkServerDaemon

#: Longest request or header line served, in bytes; longer gets a 431.
_MAX_LINE = 8192

#: Most bytes of request line plus headers served; more gets a 431.
_MAX_HEAD = 32 * 1024

#: Seconds a client has to send its whole request head; slower gets a 408.
_HEAD_TIMEOUT_S = 10.0


class _HttpError(Exception):
    """An error that maps directly onto an HTTP error response."""

    def __init__(self, status: int, reason: str, detail: str):
        """Capture the HTTP status line pieces and a JSON detail string."""
        super().__init__(detail)
        self.status = status
        self.reason = reason
        self.detail = detail


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line; a 431 if it is longer than ``_MAX_LINE``."""
    try:
        line = await reader.readline()
        if len(line) <= _MAX_LINE:
            return line
    except ValueError:
        pass  # past the reader's own 64 KiB buffer limit
    raise _HttpError(431, "Request Header Fields Too Large", f"{what} too long")


async def _read_head(reader: asyncio.StreamReader) -> tuple[str, str]:
    """The request's method and target; a 431 past ``_MAX_HEAD`` bytes."""
    request_line = await _read_line(reader, "request line")
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) != 3:
        raise _HttpError(400, "Bad Request", "malformed request line")
    # Drain headers; the control plane is GET-only and ignores them.
    size = len(request_line)
    while True:
        line = await _read_line(reader, "header line")
        size += len(line)
        if size > _MAX_HEAD:
            raise _HttpError(431, "Request Header Fields Too Large", "request head too long")
        if line in (b"\r\n", b"\n", b""):
            break
    return parts[0].upper(), parts[1]


class ControlPlane:
    """The daemon's HTTP listener; one instance per daemon."""

    def __init__(self, daemon: "NetworkServerDaemon"):
        """Bind the control plane to its daemon (listen on :meth:`start`)."""
        self.daemon = daemon
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``http_port=0`` after start)."""
        if self._server is None:
            raise ConfigurationError("control plane not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Start listening on the configured host/port."""
        config = self.daemon.config
        self._server = await asyncio.start_server(
            self._handle, host=config.http_host, port=config.http_port
        )

    async def stop(self) -> None:
        """Stop listening and close open connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            method, path = await self._read_request(reader)
            await self._route(method, path, writer)
        except _HttpError as error:
            self._write_json(
                writer, error.status, error.reason, {"error": error.detail}
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Daemon shutdown with the connection (e.g. an SSE stream)
            # still open: close quietly instead of logging a traceback.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> tuple[str, str]:
        # asyncio.wait_for, not asyncio.timeout: the latter needs 3.11.
        try:
            return await asyncio.wait_for(_read_head(reader), _HEAD_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _HttpError(408, "Request Timeout", "request head not received in time") from None

    async def _route(self, method: str, target: str, writer: asyncio.StreamWriter) -> None:
        if method != "GET":
            raise _HttpError(405, "Method Not Allowed", f"{method} not supported")
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        if path == "/healthz":
            self._write_json(writer, 200, "OK", self.daemon.health())
        elif path == "/metrics":
            body = self.daemon.render_metrics().encode()
            self._write_raw(writer, 200, "OK", "text/plain; version=0.0.4", body)
        elif path == "/verdicts":
            self._write_json(writer, 200, "OK", self._verdicts(parse_qs(url.query)))
        elif path.startswith("/devices/"):
            self._write_json(writer, 200, "OK", self._device(path[len("/devices/") :]))
        elif path == "/alerts":
            await self._stream_alerts(writer)
        else:
            raise _HttpError(404, "Not Found", f"no route for {path}")

    def _device(self, addr_text: str) -> dict:
        try:
            dev_addr = int(addr_text, 16)
        except ValueError:
            raise _HttpError(400, "Bad Request", f"device address {addr_text!r} is not hex")
        state = self.daemon.server.device_state(dev_addr)
        if state is None:
            raise _HttpError(404, "Not Found", f"device {addr_text} not registered")
        return state

    def _verdicts(self, query: dict[str, list[str]]) -> dict:
        offset = _query_int(query, "offset", 0)
        page_cap = self.daemon.config.verdict_page_limit
        limit = min(_query_int(query, "limit", page_cap), page_cap)
        if offset < 0 or limit < 0:
            raise _HttpError(400, "Bad Request", "offset and limit must be >= 0")
        verdicts = self.daemon.server.verdicts
        page = verdicts[offset : offset + limit]
        return {
            "total": len(verdicts),
            "offset": offset,
            "limit": limit,
            "verdicts": [v.as_dict() for v in page],
        }

    async def _stream_alerts(self, writer: asyncio.StreamWriter) -> None:
        queue = self.daemon.alerts.subscribe()
        self.daemon.metrics.get("repro_service_alert_subscribers").set(
            self.daemon.alerts.subscriber_count
        )
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
                b": stream open\n\n"
            )
            await writer.drain()
            while True:
                alert = await queue.get()
                payload = json.dumps(alert, separators=(",", ":"))
                writer.write(f"event: attack_detected\ndata: {payload}\n\n".encode())
                await writer.drain()
        finally:
            self.daemon.alerts.unsubscribe(queue)
            self.daemon.metrics.get("repro_service_alert_subscribers").set(
                self.daemon.alerts.subscriber_count
            )

    def _write_json(
        self, writer: asyncio.StreamWriter, status: int, reason: str, body: dict
    ) -> None:
        raw = json.dumps(body, separators=(",", ":")).encode()
        self._write_raw(writer, status, reason, "application/json", raw)

    def _write_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        reason: str,
        content_type: str,
        body: bytes,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)


def _query_int(query: dict[str, list[str]], name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise _HttpError(400, "Bad Request", f"query param {name!r} must be an integer")
