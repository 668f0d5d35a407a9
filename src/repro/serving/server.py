"""Asyncio SPARQL protocol endpoint with streaming, chunked responses.

A deliberately small HTTP/1.1 front-end for one loaded engine — standard
library only, single event loop, persistent connections:

* ``GET /sparql?query=...`` and ``POST /sparql`` (both
  ``application/x-www-form-urlencoded`` forms and direct
  ``application/sparql-query`` bodies), per the SPARQL 1.1 Protocol;
* content negotiation over the streaming serializers
  (:mod:`repro.sparql.serializers`): JSON, CSV, TSV — 406 otherwise;
* responses use chunked transfer encoding and are produced batch-by-batch:
  the first engine batch is pulled *before* the status line goes out (so
  evaluation errors still become clean 400/500/503/504 statuses), then
  bytes hit the socket as the matcher produces solutions;
* ``GET /health`` (liveness) and ``GET /stats`` (engine + scheduler
  counters as JSON).

Admission, deadlines and cancellation live in the
:class:`~repro.serving.scheduler.QueryScheduler`; the handler coroutines
here only translate its outcomes into status codes.  A client that
disconnects mid-stream tears its query down the same way a timeout does:
the producer's stop event is set and the batch stream is closed, which
cancels matching in the worker pools.

:class:`ServerThread` runs the whole loop on a daemon thread for tests,
benchmarks and synchronous embedders.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError
from repro.serving.scheduler import (
    QueryScheduler,
    QueryTimeout,
    RunningQuery,
    ServerOverloaded,
)
from repro.sparql.serializers import SERIALIZERS, negotiate

#: Upper bound on one request head + body (queries are small; 503s are not).
MAX_REQUEST_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    406: "Not Acceptable",
    408: "Request Timeout",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """Internal: malformed HTTP that still deserves a status response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class SparqlServer:
    """One engine behind a SPARQL 1.1 protocol endpoint."""

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: Optional[int] = None,
        queue_depth: Optional[int] = None,
        timeout_ms: Optional[int] = None,
    ):
        self.engine = engine
        self.host = host
        self.port = port
        self.scheduler = QueryScheduler(
            max_inflight=max_inflight,
            queue_depth=queue_depth,
            timeout_ms=timeout_ms,
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = OS-assigned)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, refuse queued work, release scheduler threads."""
        self.scheduler.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    await self._send_simple(
                        writer, error.status, "text/plain", str(error).encode(),
                        keep_alive=False,
                    )
                    break
                if request is None:  # clean EOF between requests
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; per-query cleanup already ran
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; None on EOF before a request line."""
        try:
            line = await reader.readline()
        except ValueError as error:  # line longer than the stream limit
            raise _BadRequest(413, "request line too long") from error
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError as error:
            raise _BadRequest(400, "malformed request line") from error
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "").strip()
        if length_text:
            try:
                length = int(length_text)
            except ValueError as error:
                raise _BadRequest(400, "malformed Content-Length") from error
            if length > MAX_REQUEST_BYTES:
                raise _BadRequest(413, "request body too large")
            body = await reader.readexactly(length)
        return method, target, headers, body

    # -------------------------------------------------------------- dispatch
    async def _dispatch(self, request, writer) -> bool:
        method, target, headers, body = request
        parts = urlsplit(target)
        path = parts.path
        keep_alive = headers.get("connection", "").lower() != "close"

        if path == "/health":
            await self._send_simple(writer, 200, "text/plain", b"ok\n", keep_alive)
            return keep_alive
        if path == "/stats":
            payload = json.dumps(self._stats(), default=str, indent=2) + "\n"
            await self._send_simple(
                writer, 200, "application/json", payload.encode(), keep_alive
            )
            return keep_alive
        if path != "/sparql":
            await self._send_simple(
                writer, 404, "text/plain", b"not found\n", keep_alive
            )
            return keep_alive
        if method not in ("GET", "POST"):
            await self._send_simple(
                writer, 405, "text/plain", b"use GET or POST\n", keep_alive
            )
            return keep_alive

        try:
            query_text = self._extract_query(method, parts.query, headers, body)
        except _BadRequest as error:
            await self._send_simple(
                writer, error.status, "text/plain", str(error).encode(), keep_alive
            )
            return keep_alive

        media_type = negotiate(headers.get("accept"))
        if media_type is None:
            await self._send_simple(
                writer,
                406,
                "text/plain",
                b"supported: " + ", ".join(sorted(SERIALIZERS)).encode() + b"\n",
                keep_alive,
            )
            return keep_alive

        # Parse before admission: syntax errors must not consume a slot.
        try:
            parsed = self.engine._parse_checked(query_text)
        except ReproError as error:
            await self._send_simple(
                writer, 400, "text/plain", f"{error}\n".encode(), keep_alive
            )
            return keep_alive

        return await self._stream_query(parsed, media_type, writer, keep_alive)

    def _extract_query(self, method, query_string, headers, body) -> str:
        if method == "GET":
            values = parse_qs(query_string).get("query")
            if not values:
                raise _BadRequest(400, "missing query parameter\n")
            return values[0]
        content_type = headers.get("content-type", "").split(";")[0].strip().lower()
        if content_type in ("application/x-www-form-urlencoded", ""):
            values = parse_qs(body.decode("utf-8")).get("query")
            if not values:
                raise _BadRequest(400, "missing query parameter\n")
            return values[0]
        if content_type == "application/sparql-query":
            return body.decode("utf-8")
        raise _BadRequest(415, f"unsupported request type {content_type}\n")

    # --------------------------------------------------------------- queries
    async def _stream_query(self, parsed, media_type, writer, keep_alive) -> bool:
        serialize = SERIALIZERS[media_type]
        engine = self.engine

        def produce(stop_event: threading.Event):
            result = engine.query_batches(parsed)

            def surviving_batches():
                with result:
                    for batch in result:
                        if stop_event.is_set():
                            return
                        yield batch

            return serialize(result.variables, surviving_batches())

        try:
            run = await self.scheduler.submit(produce)
        except ServerOverloaded as error:
            await self._send_simple(
                writer,
                503,
                "text/plain",
                f"overloaded: {error}\n".encode(),
                keep_alive,
                extra_headers=("Retry-After: 1",),
            )
            return keep_alive
        except QueryTimeout as error:
            await self._send_simple(
                writer, 504, "text/plain", f"{error}\n".encode(), keep_alive
            )
            return keep_alive

        started = False
        try:
            # The serializers pull the first batch before their header
            # chunk, so this surfaces evaluation errors pre-status-line.
            first = await run.next_chunk()
            head = (
                f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: {media_type}\r\n"
                f"Transfer-Encoding: chunked\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                f"\r\n"
            ).encode("latin-1")
            writer.write(head)
            started = True
            chunk = first
            while chunk is not None:
                if chunk:
                    writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                    await writer.drain()
                chunk = await run.next_chunk()
            # Settle accounting before the terminal chunk: a client that
            # has read a complete response must observe the completed /
            # released counters on a subsequent /stats request.
            await run.finish()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            return keep_alive
        except QueryTimeout as error:
            if not started:
                await self._send_simple(
                    writer, 504, "text/plain", f"{error}\n".encode(), keep_alive
                )
                return keep_alive
            return False  # mid-stream: truncate the chunked body
        except ConnectionError:
            return False  # client disconnected; finish() cancels the query
        except Exception as error:
            if not started:
                await self._send_simple(
                    writer, 500, "text/plain", f"{error}\n".encode(), keep_alive
                )
                return keep_alive
            return False
        finally:
            await run.finish()

    # ----------------------------------------------------------------- misc
    def _stats(self) -> dict:
        stats = {"scheduler": self.scheduler.snapshot()}
        engine_stats = getattr(self.engine, "stats", None)
        if callable(engine_stats):
            stats["engine"] = engine_stats()
        return stats

    async def _send_simple(
        self,
        writer,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool,
        extra_headers: Tuple[str, ...] = (),
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
            *extra_headers,
            "",
            "",
        ]
        writer.write("\r\n".join(lines).encode("latin-1") + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass


class ServerThread:
    """A :class:`SparqlServer` on a background daemon thread.

    The synchronous embedding for tests and benchmarks::

        with ServerThread(engine, max_inflight=2) as server:
            http.client.HTTPConnection("127.0.0.1", server.port) ...
    """

    def __init__(self, engine, **kwargs):
        self.server = SparqlServer(engine, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-sparql-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
