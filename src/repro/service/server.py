"""HTTP transport of the trace service (stdlib ``http.server``).

One :class:`TraceServiceServer` (a ``ThreadingHTTPServer``: one
thread per connection, shared :class:`~repro.service.api.TraceService`
state) speaks a minimal JSON protocol:

* ``POST /api/<endpoint>`` with a JSON object body — the endpoints of
  :data:`~repro.service.api.ENDPOINTS`;
* ``GET /health`` — liveness plus pool/session counters.

Successful replies are ``200`` with the handler's JSON dict; failures
are the :class:`~repro.service.api.ServiceError` status with a
``{"error": {"code", "message"}}`` body.  The protocol is HTTP/1.1
with explicit ``Content-Length``, so clients keep connections alive —
the 16-client benchmark and the thin client both rely on that.  Bodies
longer than :data:`MAX_BODY_BYTES` (413) or with an invalid
``Content-Length`` (400) are refused unread, and the connection is
closed.

Use :func:`create_server` + ``serve_forever`` for a foreground server
(the CLI ``serve`` subcommand) or :func:`start_server` for a
background thread (tests, docs, notebooks).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from .api import ServiceError, TraceService

#: Largest request body the server reads, in bytes; a longer declared
#: body is refused with 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps the HTTP surface onto :meth:`TraceService.handle`."""

    server_version = "ReproTraceService/1.0"
    protocol_version = "HTTP/1.1"

    def _reply(self, status, payload, close=False):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: bytes of a request body left
            # unread must not be parsed as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _refuse_body(self, status, message):
        """Answer without reading the body, then drop the connection."""
        self._reply(status, ServiceError("bad_request", message,
                                         status=status).payload(),
                    close=True)

    def do_GET(self):
        """``GET /health``: liveness + counters."""
        if urlparse(self.path).path.rstrip("/") in ("", "/health"):
            self._reply(200, self.server.service.describe())
        else:
            self._reply(404, ServiceError(
                "unknown_endpoint",
                "GET serves /health only; the API is POST "
                "/api/<endpoint>", status=404).payload())

    def do_POST(self):
        """``POST /api/<endpoint>`` with a JSON object body."""
        path = urlparse(self.path).path
        if not path.startswith("/api/"):
            self._reply(404, ServiceError(
                "unknown_endpoint",
                "POST endpoints live under /api/", status=404)
                .payload())
            return
        endpoint = path[len("/api/"):].strip("/")
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self._refuse_body(400, "Content-Length must be a "
                                   "non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            self._refuse_body(413, "request body of {} bytes exceeds "
                                   "the {}-byte limit".format(
                                       length, MAX_BODY_BYTES))
            return
        try:
            params = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._reply(400, ServiceError(
                "bad_request", "request body is not valid JSON")
                .payload())
            return
        try:
            self._reply(200, self.server.service.handle(endpoint,
                                                        params))
        except ServiceError as error:
            self._reply(error.status, error.payload())
        except Exception as error:     # never kill the connection
            self._reply(500, ServiceError(
                "internal", "{}: {}".format(type(error).__name__,
                                            error),
                status=500).payload())

    def log_message(self, format, *args):
        """Quiet by default; ``verbose=True`` restores access logs."""
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, format, *args)


class TraceServiceServer(ThreadingHTTPServer):
    """A threading HTTP server wrapping one shared ``TraceService``."""

    daemon_threads = True

    def __init__(self, address, service, verbose=False):
        self.service = service
        self.verbose = verbose
        super().__init__(address, _ServiceRequestHandler)

    @property
    def url(self):
        """The server's base URL (useful after binding port 0)."""
        host, port = self.server_address[:2]
        return "http://{}:{}".format(host, port)


def create_server(host="127.0.0.1", port=0, service=None, verbose=False,
                  **service_options):
    """Build a bound (not yet serving) :class:`TraceServiceServer`.

    ``port=0`` binds an ephemeral port (read it back from ``.url``).
    Extra keyword arguments construct the :class:`TraceService`
    (``pool_capacity``, ``root``, ``width``, ``height``, ...).
    """
    if service is None:
        service = TraceService(**service_options)
    return TraceServiceServer((host, port), service, verbose=verbose)


def start_server(host="127.0.0.1", port=0, service=None, verbose=False,
                 **service_options):
    """Start a server in a daemon thread and return it serving.

    The caller owns shutdown: ``server.shutdown()`` stops the serve
    loop (the thread is a daemon, so a forgotten server never blocks
    interpreter exit).
    """
    server = create_server(host=host, port=port, service=service,
                           verbose=verbose, **service_options)
    thread = threading.Thread(target=server.serve_forever,
                              name="trace-service", daemon=True)
    thread.start()
    server.thread = thread
    return server
