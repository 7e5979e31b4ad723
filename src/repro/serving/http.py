"""The HTTP edge shared by every front door of the serving stack.

Both HTTP apps — the long-lived
:class:`~repro.serving.server.SimulationServer` and the fleet's
:class:`~repro.serving.router.FleetRouter` — are an :class:`HttpApp`:
route tables (``GET_ROUTES``/``POST_ROUTES``, route -> ``handle_*``
method name) plus the handlers they name.  Everything between the socket
and those handlers lives here, once:

* reading the request body under ``max_body_bytes`` — ``411`` for an
  absent or malformed ``Content-Length``, ``413`` past the limit, both
  closing the connection — and parsing it as JSON once
  (``malformed_json``); an unread body is drained so a keep-alive
  connection stays in sync;
* route normalisation (query string and trailing slash dropped, the one
  parameterised route ``/v1/trace/<id>``), ``404 unknown_route`` and
  ``405 method_not_allowed``;
* one exception -> status mapping into structured error documents, and
  one error-counting rule: every answer with a status >= 400 counts;
* the ``http_parse`` / ``serialize`` / ``error`` span marks of a traced
  route whenever the app has a recorder;
* writing the response: a dict body is JSON, a str body is Prometheus
  text, bytes pass through untouched (the router proxies upstream bodies
  byte for byte);
* the lifecycle: the socket binds in the constructor, then
  :meth:`HttpApp.start` (background thread) or
  :meth:`HttpApp.serve_forever` (blocking), and a bounded, reported
  :meth:`HttpApp.close`.

A handler takes one :class:`Request` and returns ``(status, body,
headers)``.  What differs between the apps is data only: the server
name, the route tables, ``TRACED_ROUTES`` and whether ``recorder`` is
set.
"""

from __future__ import annotations

import json
import threading
import time
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, NamedTuple

from repro.compiler.cache import _code_version
from repro.errors import AsimError, DeadlineExceededError, WorkerCrashError
from repro.serving.protocol import (
    TRACE_HEADER,
    ProtocolError,
    error_kind,
    error_to_json,
)
from repro.serving.tracing import TraceBuilder, TraceRecorder, sanitize_trace_id

#: Largest request body an app reads by default (a batch of thousands of
#: run objects fits comfortably; anything bigger is a client bug).
#: Tunable per app via ``max_body_bytes`` / ``--max-body-bytes``.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The one parameterised route: ``/v1/trace/<id>`` dispatches to this
#: route with ``<id>`` as :attr:`Request.arg`.
TRACE_ROUTE = "/v1/trace"
_TRACE_PREFIX = TRACE_ROUTE + "/"

_JSON_TYPE = "application/json"
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class Request(NamedTuple):
    """One routed request, as the edge hands it to a ``handle_*`` method."""

    #: normalised path: query string and trailing slash dropped
    path: str
    #: the ``<id>`` of ``/v1/trace/<id>``; ``None`` on every other route
    arg: str | None
    #: the request headers (case-insensitive lookups)
    headers: Message
    #: the raw POST body; ``None`` for a GET
    body: bytes | None
    #: the POST body parsed as JSON; ``None`` for a GET
    doc: object
    #: the request's trace when its route is traced and the app records
    trace: TraceBuilder | None


def _error_status(exc: Exception) -> tuple[int, str, str]:
    """``(status, kind, message)`` for a handler that raised *exc*."""
    if isinstance(exc, ProtocolError):
        return exc.status, exc.kind, str(exc)
    if isinstance(exc, DeadlineExceededError):
        # a single run that missed its deadline: the gateway-timeout
        # status, same stable kind as a per-item batch error
        return 504, error_kind(exc), str(exc)
    if isinstance(exc, WorkerCrashError):
        # a worker died on this request's account: a server-side
        # failure, structured rather than a bare 500
        return 500, error_kind(exc), str(exc)
    if isinstance(exc, AsimError):
        # the simulation rejected the request (bad spec semantics, a
        # run-time machine error, a closed pool): the client's fault
        return 400, type(exc).__name__, str(exc)
    return 500, "internal_error", f"{type(exc).__name__}: {exc}"


class _Socket(ThreadingHTTPServer):
    """ThreadingHTTPServer wired back to the owning :class:`HttpApp`.

    ``block_on_close`` (the default) makes ``server_close`` join
    in-flight request threads — the first half of the graceful-shutdown
    path; :meth:`HttpApp.close` bounds that join with its
    ``drain_timeout``.  The threads stay daemonic so a request that
    outlives the drain budget is abandoned without holding interpreter
    exit hostage.
    """

    daemon_threads = True
    app: "HttpApp"


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the ``handle_*`` methods of an app."""

    protocol_version = "HTTP/1.1"
    server: _Socket

    def version_string(self) -> str:
        return f"{self.server.app.NAME}/{_code_version()}"

    # the default handler logs every request to stderr; the apps keep
    # counters instead (GET /v1/stats)
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        app = self.server.app
        self._dispatch(app, app.GET_ROUTES, app.POST_ROUTES)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        app = self.server.app
        self._dispatch(app, app.POST_ROUTES, app.GET_ROUTES)

    def _dispatch(self, app: "HttpApp", routes: Mapping[str, str],
                  other: Mapping[str, str]) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route, arg = path, None
        if path.startswith(_TRACE_PREFIX):
            route, arg = TRACE_ROUTE, path[len(_TRACE_PREFIX):]
        handler_name = routes.get(route)
        if handler_name is None:
            self._discard_body(app.max_body_bytes)
            app.count_error()
            if route in other:
                self._respond(405, error_to_json(
                    "method_not_allowed",
                    f"{path} does not accept {self.command}",
                ), {})
            else:
                self._respond(404, error_to_json(
                    "unknown_route",
                    f"no such route: {path} (see docs/api-reference.md)",
                ), {})
            return
        app.count_request(route)
        headers: dict[str, str] = {}
        recorder = app.recorder
        tb: TraceBuilder | None = None
        if recorder is not None and route in app.TRACED_ROUTES:
            tb = recorder.begin(
                route, sanitize_trace_id(self.headers.get(TRACE_HEADER))
            )
            headers[TRACE_HEADER] = tb.trace_id
        try:
            body = doc = None
            if self.command == "POST":
                body = self._read_body(app.max_body_bytes)
                try:
                    doc = json.loads(body)
                except json.JSONDecodeError as exc:
                    raise ProtocolError(
                        f"request body is not valid JSON: {exc}",
                        kind="malformed_json",
                    ) from exc
                if tb is not None:
                    tb.mark("http_parse")
            status, document, extra = getattr(app, handler_name)(
                Request(path, arg, self.headers, body, doc, tb)
            )
            headers.update(extra)
        except Exception as exc:  # noqa: BLE001 - mapped, never a bare 500
            status, kind, message = _error_status(exc)
            document = error_to_json(kind, message)
            if isinstance(exc, ProtocolError) and exc.retry_after is not None:
                headers["Retry-After"] = str(max(1, round(exc.retry_after)))
            if tb is not None:
                tb.error(kind, message)
        if status >= 400:
            app.count_error()
        self._respond(status, document, headers)
        if tb is not None:
            # the serialize phase closes after the response bytes are on
            # the socket, so the trace covers the full server-side wall
            # time; finishing after _respond keeps export cost (JSONL /
            # SQLite writes) off the client's measured latency.  A failed
            # request keeps its ``error`` span terminal — the error-body
            # write is folded into it rather than marked separately.
            if tb.errored:
                tb.extend_last()
            else:
                tb.mark("serialize")
            recorder.finish(tb, status)

    def _respond(self, status: int, body: "dict | str | bytes",
                 headers: Mapping[str, str]) -> None:
        if isinstance(body, bytes):
            payload, content_type = body, _JSON_TYPE
        elif isinstance(body, str):
            payload, content_type = body.encode(), _PROMETHEUS_TYPE
        else:
            payload, content_type = json.dumps(body).encode(), _JSON_TYPE
        self.send_response(status)
        if "Content-Type" not in headers:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        if self.close_connection:
            # an error path left request-body bytes unread: tell the
            # keep-alive client this connection is done rather than let
            # the leftovers corrupt its next request
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _content_length(self, absent: str) -> int:
        """The declared body length (*absent* stands in for a missing or
        empty header), or -1 when it does not parse."""
        try:
            return int(self.headers.get("Content-Length") or absent)
        except ValueError:
            return -1

    def _discard_body(self, limit: int) -> None:
        """Consume an unread request body so a keep-alive connection stays
        in sync; when that is impossible (malformed or oversized
        Content-Length) mark the connection for closing instead."""
        length = self._content_length("0")
        if 0 <= length <= limit:
            while length > 0:
                chunk = self.rfile.read(min(length, 65536))
                if not chunk:
                    break
                length -= len(chunk)
        else:
            self.close_connection = True

    def _read_body(self, limit: int) -> bytes:
        length = self._content_length("")
        if length < 0:
            # absent or malformed (including negative): nothing sane to
            # read, so the connection cannot be kept in sync either
            self.close_connection = True
            raise ProtocolError(
                "a JSON body with a valid non-negative Content-Length "
                "header is required",
                status=411, kind="length_required",
            )
        if length > limit:
            self.close_connection = True
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
                status=413, kind="body_too_large",
            )
        return self.rfile.read(length)


class HttpApp:
    """An app served over the shared HTTP edge, with its lifecycle.

    Subclasses set :attr:`NAME` and the route tables and implement the
    ``handle_*`` methods those tables name.  ``port=0`` binds an
    ephemeral port; the bound address is available as
    :attr:`host`/:attr:`port`/:attr:`url` after construction.  Use as a
    context manager, or call :meth:`start` / :meth:`serve_forever` and
    then :meth:`close`.
    """

    #: server software name: the ``Server`` header and thread names
    NAME: str
    #: GET / POST routes -> handler method name
    GET_ROUTES: Mapping[str, str]
    POST_ROUTES: Mapping[str, str]
    #: routes whose requests get a trace when :attr:`recorder` is set
    TRACED_ROUTES: frozenset[str] = frozenset()
    recorder: TraceRecorder | None = None

    def __init__(self, host: str, port: int, *,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 drain_timeout: float = 10.0) -> None:
        if max_body_bytes <= 0:
            raise ValueError(
                f"max_body_bytes must be positive, got {max_body_bytes}"
            )
        if drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self.drain_failed = False
        self.started_at = time.time()
        self._requests: dict[str, int] = {}
        self._errors = 0
        self._counter_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._serve_started = False
        self._http = _Socket((host, port), _Handler)
        self._http.app = self

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> HttpApp:
        """Serve from a background thread; the socket is already bound."""
        self._serve_started = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name=self.NAME, daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._serve_started = True
        self._http.serve_forever()

    def close(self, wait: bool = True) -> bool:
        """Graceful shutdown: stop accepting, drain in-flight requests,
        then release the app's own resources (:meth:`_release`).

        The drain is bounded by ``drain_timeout`` seconds and *reported*:
        returns ``True`` when everything finished in time, ``False`` —
        with :attr:`drain_failed` set — when in-flight request threads
        outlived the budget and were abandoned (they are daemonic, so
        the process can still exit).  A second call is a no-op that
        repeats the first call's answer.
        """
        if self._closed:
            return not self.drain_failed
        self._closed = True
        if self._serve_started:
            # BaseServer.shutdown blocks until the serve loop acknowledges,
            # so it must only run when a loop was (or is) running
            self._http.shutdown()
        deadline = time.monotonic() + self.drain_timeout
        # server_close joins in-flight request threads with no timeout of
        # its own, so run it on a sacrificial thread and bound the wait
        # here — a hung request must not turn graceful shutdown into an
        # unbounded hang
        closer = threading.Thread(
            target=self._http.server_close, name=f"{self.NAME}-close",
            daemon=True,
        )
        closer.start()
        closer.join(timeout=max(0.0, deadline - time.monotonic()))
        if closer.is_alive():
            self.drain_failed = True
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if self._thread.is_alive():
                self.drain_failed = True
        self._release(wait=wait and not self.drain_failed)
        return not self.drain_failed

    def _release(self, wait: bool) -> None:
        """Release app resources after the HTTP drain; *wait* is ``False``
        when the drain failed, so nothing may block on a hung request."""

    def __enter__(self) -> HttpApp:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request accounting --------------------------------------------------

    def count_request(self, route: str) -> None:
        with self._counter_lock:
            self._requests[route] = self._requests.get(route, 0) + 1

    def count_error(self) -> None:
        with self._counter_lock:
            self._errors += 1

    def request_counters(self) -> tuple[dict[str, int], int]:
        """A consistent ``(requests by route, errors)`` snapshot."""
        with self._counter_lock:
            return dict(self._requests), self._errors
