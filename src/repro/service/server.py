"""The asyncio HTTP/1.1 front end of the typecheck-and-run service.

Stdlib only: :func:`asyncio.start_server` plus a hand-rolled HTTP/1.1
request parser (request line, headers, ``Content-Length`` bodies,
keep-alive).  The event loop never runs inference or evaluation — CPU
work is pushed to a small thread pool, each request wrapped in a fresh
:class:`contextvars.Context` so its perf/obs collection windows are
invisible to every other in-flight request.

Admission control is two-layered:

* a semaphore bounds the requests *computing* at once
  (``max_concurrency``, default 8 — matched to the conformance sweep's
  in-flight floor);
* a queue-depth bound rejects rather than buffers once
  ``max_queue`` requests are already waiting: the server answers 429
  with a ``Retry-After`` hint instead of accumulating latency.

Routes::

    GET  /healthz                    liveness
    GET  /v1/metrics                 Prometheus text exposition
    GET  /v1/stats                   counters, cache + intern-pool sizes
    POST /v1/typecheck               {program, p?, prelude?}
    POST /v1/run                     {program, p?, g?, l?, backend?,
                                      faults?, typed?, prelude?}
    POST /v1/session                 {prelude?} -> {session}
    GET  /v1/session/<sid>           definitions + chain-cache size
    POST /v1/session/<sid>/define    {name, source} -> per-def schemes
    POST /v1/session/<sid>/run       {program?, ...run knobs}
    DELETE /v1/session/<sid>
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bsp.executor import BACKENDS
from repro.obs import metrics
from repro.service.handlers import RequestError, ServiceConfig, ServiceCore, serialize

#: Parser caps — requests breaching them are answered 400/413/431.
MAX_REQUEST_LINE = 8192
MAX_HEADER_LINES = 100
DEFAULT_MAX_BODY = 1 << 20  # 1 MiB of program text is plenty

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ReproServer:
    """One service instance bound to one host/port."""

    def __init__(
        self,
        core: Optional[ServiceCore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 8,
        max_queue: int = 32,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.core = core or ServiceCore()
        self.host = host
        self.port = port  #: replaced by the bound port after start()
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.max_body = max_body
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-svc"
        )
        self._waiting = 0
        self._inflight = 0
        self.peak_inflight = 0
        self.rejected = 0
        self._gauges = threading.Lock()
        self._metrics_on = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        if self.core.config.metrics and not self._metrics_on:
            metrics.enable()
            self._metrics_on = True
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel lingering keep-alive connection handlers so the loop
        # can wind down without destroying pending tasks.
        current = asyncio.current_task()
        lingering = [task for task in asyncio.all_tasks() if task is not current]
        for task in lingering:
            task.cancel()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self._pool.shutdown(wait=False)
        if self._metrics_on:
            metrics.disable()
            self._metrics_on = False

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    await self._respond(
                        writer,
                        error.status,
                        serialize({"error": {"kind": "http", "message": str(error)}}),
                        close=True,
                    )
                    return
                if request is None:  # clean EOF between requests
                    return
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload, extra = await self._dispatch(method, path, body)
                await self._respond(
                    writer, status, payload, close=not keep_alive, extra=extra
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down mid-connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readline()
        except ValueError as error:  # line longer than the stream limit
            raise _HttpError(431, str(error)) from error
        if not line:
            return None
        if len(line) > MAX_REQUEST_LINE:
            raise _HttpError(431, "request line too long")
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "malformed request line")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _HttpError(400, "connection closed inside headers")
            if len(raw) > MAX_REQUEST_LINE:
                raise _HttpError(431, "header line too long")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {raw!r}")
            headers[name.strip().lower()] = value.strip().lower() if (
                name.strip().lower() == "connection"
            ) else value.strip()
        else:
            raise _HttpError(431, "too many header lines")
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "malformed Content-Length") from None
            if length < 0:
                raise _HttpError(400, "malformed Content-Length")
            if length > self.max_body:
                raise _HttpError(413, f"body exceeds {self.max_body} bytes")
            body = await reader.readexactly(length)
        elif headers.get("transfer-encoding"):
            raise _HttpError(400, "chunked bodies are not supported")
        return method, path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        close: bool = False,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        # extra headers override the defaults (case-insensitively), so a
        # route can replace Content-Type — /v1/metrics answers text/plain.
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "close" if close else "keep-alive",
        }
        canonical = {name.lower(): name for name in headers}
        for name, value in (extra or {}).items():
            headers[canonical.get(name.lower(), name)] = value
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    # -- routing ----------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return 200, serialize({"status": "ok"}), {}
        if method == "GET" and path == "/v1/stats":
            return 200, serialize(self.stats()), {}
        if method == "GET" and path == "/v1/metrics":
            # Served inline (like /healthz, bypassing admission control):
            # a scrape must succeed even when the service is saturated —
            # that is precisely when its numbers matter most.
            return (
                200,
                metrics.render_global().encode("utf-8"),
                {"Content-Type": metrics.PROMETHEUS_CONTENT_TYPE},
            )

        route, handler = self._route(method, path)
        if handler is None:
            return (
                404,
                serialize({"error": {"kind": "not-found", "message": path}}),
                {},
            )

        payload = self._parse_body(body)
        if isinstance(payload, tuple):  # (status, error-bytes)
            return payload[0], payload[1], {}
        return await self._run_limited(route, handler, payload)

    def _route(
        self, method: str, path: str
    ) -> Tuple[str, Optional[Callable[[Dict[str, Any]], Tuple[int, bytes, str]]]]:
        """Resolve ``(route name, handler)``.

        The route name is the *pattern* (``/v1/session/{sid}/run``), not
        the concrete path — session ids must not become metric labels.
        """
        core = self.core
        if method == "POST":
            if path == "/v1/typecheck":
                return "/v1/typecheck", core.handle_typecheck
            if path == "/v1/run":
                return "/v1/run", core.handle_run
            if path == "/v1/session":
                return "/v1/session", core.handle_session_create
        segments = path.strip("/").split("/")
        if len(segments) >= 2 and segments[0] == "v1" and segments[1] == "session":
            if len(segments) == 3:
                sid = segments[2]
                if method == "GET":
                    return (
                        "/v1/session/{sid}",
                        lambda _payload: core.handle_session_info(sid),
                    )
                if method == "DELETE":
                    return (
                        "/v1/session/{sid}",
                        lambda _payload: core.handle_session_delete(sid),
                    )
            if len(segments) == 4 and method == "POST":
                sid, action = segments[2], segments[3]
                if action == "define":
                    return (
                        "/v1/session/{sid}/define",
                        lambda payload: core.handle_session_define(sid, payload),
                    )
                if action == "run":
                    return (
                        "/v1/session/{sid}/run",
                        lambda payload: core.handle_session_run(sid, payload),
                    )
        return "", None

    def _parse_body(self, body: bytes):
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return (
                400,
                serialize({"error": {"kind": "json", "message": str(error)}}),
            )
        if not isinstance(payload, dict):
            return (
                400,
                serialize(
                    {"error": {"kind": "json", "message": "body must be a JSON object"}}
                ),
            )
        return payload

    # -- admission control + worker offload -------------------------------

    async def _run_limited(
        self,
        route: str,
        handler: Callable[[Dict[str, Any]], Tuple[int, bytes, str]],
        payload: Dict[str, Any],
    ) -> Tuple[int, bytes, Dict[str, str]]:
        assert self._semaphore is not None, "server not started"
        recording = metrics.is_enabled()
        if self._semaphore.locked() and self._waiting >= self.max_queue:
            with self._gauges:
                self.rejected += 1
            if recording:
                metrics.REJECTED_TOTAL.inc()
                metrics.REQUESTS_TOTAL.inc(route=route, status="429")
            return (
                429,
                serialize(
                    {
                        "error": {
                            "kind": "overload",
                            "message": (
                                f"{self.max_concurrency} requests in flight and "
                                f"{self._waiting} queued; retry shortly"
                            ),
                        }
                    }
                ),
                {"Retry-After": "1"},
            )
        self._waiting += 1
        if recording:
            metrics.WAITING_REQUESTS.inc()
        async with self._semaphore:
            self._waiting -= 1
            with self._gauges:
                self._inflight += 1
                self.peak_inflight = max(self.peak_inflight, self._inflight)
                inflight = self._inflight
            if recording:
                metrics.WAITING_REQUESTS.dec()
                metrics.INFLIGHT_REQUESTS.inc()
                metrics.PEAK_INFLIGHT.set_to_max(inflight)
            try:
                return await self._offload(route, handler, payload)
            finally:
                with self._gauges:
                    self._inflight -= 1
                if recording:
                    metrics.INFLIGHT_REQUESTS.dec()

    @staticmethod
    def _backend_label(payload: Dict[str, Any]) -> str:
        """Bounded backend label for the latency histogram.

        The value is client-supplied, so anything outside the known
        backend vocabulary is bucketed as ``other`` — one bad (or
        adversarial) client must not mint unbounded label cardinality.
        """
        backend = payload.get("backend", "-")
        if backend != "-" and backend not in BACKENDS:
            backend = "other"
        return str(backend)

    async def _offload(
        self,
        route: str,
        handler: Callable[[Dict[str, Any]], Tuple[int, bytes, str]],
        payload: Dict[str, Any],
    ) -> Tuple[int, bytes, Dict[str, str]]:
        loop = asyncio.get_running_loop()

        def call() -> Tuple[int, bytes, Dict[str, str]]:
            # A fresh Context per request: collection windows the handler
            # opens (perf counters, trace spans for trace_summary) are
            # request-local, whatever worker thread picks this up.  The
            # metrics observations below are the deliberate exception —
            # they go to the process-global registry.
            context = contextvars.Context()
            recording = metrics.is_enabled()
            started = time.perf_counter() if recording else 0.0
            cache_state = ""
            try:
                status, body, cache_state = context.run(handler, payload)
                extra = {"X-Repro-Cache": cache_state} if cache_state else {}
                return status, body, extra
            except RequestError as error:
                status = error.status
                return error.status, serialize(error.payload()), {}
            except Exception as error:  # noqa: BLE001 - last-resort boundary
                status = 500
                return (
                    500,
                    serialize(
                        {
                            "error": {
                                "kind": "internal",
                                "message": f"{type(error).__name__}: {error}",
                            }
                        }
                    ),
                    {},
                )
            finally:
                if recording:
                    metrics.REQUEST_SECONDS.observe(
                        time.perf_counter() - started,
                        route=route,
                        backend=self._backend_label(payload),
                        cache=cache_state or "-",
                    )
                    metrics.REQUESTS_TOTAL.inc(route=route, status=str(status))

        return await loop.run_in_executor(self._pool, call)

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        stats = self.core.stats()
        with self._gauges:
            stats["server"] = {
                "inflight": self._inflight,
                "peak_inflight": self.peak_inflight,
                "waiting": self._waiting,
                "rejected": self.rejected,
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
            }
        return stats


# -- embedding helpers --------------------------------------------------------


class ServerHandle:
    """A running server on a daemon thread — the embedding the tests,
    the benchmark and ``minibsml serve`` (foreground variant aside) use."""

    def __init__(self, server: ReproServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 5.0) -> None:
        if self._loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            try:
                future.result(timeout=timeout)
            except Exception:
                pass  # best effort; the loop stops regardless
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)


def start_in_background(
    core: Optional[ServiceCore] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_options: Any,
) -> ServerHandle:
    """Boot a :class:`ReproServer` on a fresh daemon thread and return
    once it is accepting connections."""
    server = ReproServer(core, host=host, port=port, **server_options)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            await server.start()
            started.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=10):
        raise RuntimeError("service failed to start within 10s")
    return ServerHandle(server, loop, thread)
