"""The one HTTP layer of ``repro serve``, the fleet broker and ``repro store-serve``.

Server side, :class:`JSONServer` is a ``ThreadingHTTPServer`` driven by a
route table of ``(method, path, handler)`` rows.  A ``<name>`` segment in
a path matches the rest of the request path up to the next literal part
(slashes included); the URL-unquoted matches are passed to the handler
positionally after the request, which offers ``read_json()``,
``read_body()`` and ``query(name)``.  A handler returns ``(status, payload)``
— a dict goes out as JSON, ``bytes`` as ``application/octet-stream`` —
or raises :class:`RouteError`.  Every server gets, for free:

* ``GET /healthz`` → ``{"schema_version": N, "ok": true}``, never
  authenticated;
* one structured error shape, ``{"schema_version": N, "error": "..."}``,
  for :class:`RouteError`, for the exception types the server maps to a
  status, for unknown paths (404), for a missing or wrong bearer token
  (401, only when the server was given a token), for a body over
  :data:`MAX_BODY_BYTES` (413, answered before the body is read) and for
  a body sent with ``Transfer-Encoding`` (411, then the connection
  closes: bodies need a ``Content-Length``);
* JSON bodies that must be objects (anything else is a 400);
* replies that send the status line, headers and body in a **single
  write** — two writes on a keep-alive connection stall each reply about
  40 ms on Nagle's algorithm plus the peer's delayed ACK.

Client side, :func:`request` is the one urllib call: it returns
``(status, body)`` for every HTTP answer, errors included, and raises
:class:`TransportError` when no answer arrives or its body is over
:data:`MAX_BODY_BYTES`.  Callers keep only their own policy on top (the
CLI's exit messages, the fleet worker's retry counter, the store
client's typed errors).
"""

from __future__ import annotations

import hmac
import http.client
import json
import re
import signal
import sys
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote

#: Largest request body any server reads, and largest response body
#: :func:`request` reads; a longer ``Content-Length`` answers 413 without
#: reading.  The largest bodies are stored outcome payloads: about 2 KB in
#: the test suite, but up to 1.4 MB for a scale-1 workload that keeps
#: fig9's timing records, so this leaves 8x headroom at scale 4.
MAX_BODY_BYTES = 64 << 20


class RouteError(Exception):
    """A handler's structured refusal: answered as ``{"error": message}``."""

    def __init__(self, status: int, message: str):
        """Create the refusal with its HTTP status."""
        super().__init__(message)
        self.status = status


class TransportError(Exception):
    """No HTTP answer arrived: refused, reset, timed out or malformed."""


def clamp_wait(value, cap: float) -> float:
    """A long-poll duration in seconds, clamped into ``[0, cap]``.

    ``value`` is a ``?wait=`` query value or a JSON ``wait`` field; None
    (absent) means no wait.  A value that is not a number, or is NaN,
    raises a 400 :class:`RouteError` rather than being read as no wait.
    """
    if value is None:
        return 0.0
    try:
        wait = float(value)
    except (TypeError, ValueError):
        wait = float("nan")
    if wait != wait:
        raise RouteError(400, f"malformed wait {value!r}; expected a number "
                              f"of seconds")
    return max(0.0, min(cap, wait))


def _compile(path: str) -> re.Pattern:
    parts = re.split(r"<\w+>", path)
    return re.compile("(.+)".join(map(re.escape, parts)))


class JSONServer(ThreadingHTTPServer):
    """A threading HTTP server answering one route table.

    Args:
        address: ``(host, port)`` to bind (port 0 = any free port).
        routes: ``(method, path, handler)`` rows; see the module docstring.
            ``GET /healthz`` is added in front.
        schema_version: Stamped on ``/healthz`` and every error reply.
        token: Bearer token every route but ``/healthz`` requires (None =
            open).
        errors: Exception types a handler may raise, mapped to the status
            of the structured error they answer.
    """

    daemon_threads = True

    def __init__(self, address, routes, schema_version: int, *,
                 token: str | None = None, errors: dict | None = None):
        """Bind to ``address`` and answer ``routes``."""
        self.schema_version = schema_version
        self.token = token
        self.errors = errors or {}
        self.routes = [("GET", "/healthz", self._healthz), *routes]
        self._matchers = [(method, _compile(path), handler)
                          for method, path, handler in self.routes]
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        """The server's base URL (host and port resolved after binding)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def handle_error(self, request, client_address) -> None:
        """Swallow disconnect noise: a client killed mid-request (a fleet
        worker SIGKILLed during a long poll) is not a server bug."""
        if isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)

    def _healthz(self, request) -> tuple[int, dict]:
        return 200, {"schema_version": self.schema_version, "ok": True}


class _Handler(BaseHTTPRequestHandler):
    """Dispatches one request through its server's route table."""

    server: JSONServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Suppress the default per-request stderr chatter."""

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Route every method through the server's route table."""
        self._dispatch()

    do_HEAD = do_POST = do_PUT = do_GET

    def _dispatch(self) -> None:
        """Check size and credentials, find the route, answer its result."""
        server = self.server
        self._body_read = False
        path, _, self.query_string = self.path.partition("?")
        # A chunked body is never read, so it could not be skipped either:
        # refuse it and close the connection rather than parse it as the
        # next request.
        self._chunked = "Transfer-Encoding" in self.headers
        if self._chunked:
            return self.fail(411, "request bodies need a Content-Length; "
                                  "Transfer-Encoding is not supported")
        length = self._content_length()
        if length > MAX_BODY_BYTES:
            return self.fail(413, f"request body of {length} bytes exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit")
        if server.token and path != "/healthz" and not self._authorized():
            return
        for method, pattern, handler in server._matchers:
            match = pattern.fullmatch(path)
            if method == self.command and match:
                break
        else:
            return self.fail(404, f"unknown path {path!r}")
        try:
            self.reply(*handler(self, *map(unquote, match.groups())))
        except RouteError as error:
            self.fail(error.status, str(error))
        except tuple(server.errors) as error:
            status = next(code for kind, code in server.errors.items()
                          if isinstance(error, kind))
            self.fail(status, str(error))

    def _authorized(self) -> bool:
        """Check the bearer token; answer the 401 when it fails."""
        # Imported on use: importing repro.store imports this module.
        from repro.store.schema import AUTH_HEADER, AUTH_SCHEME

        scheme, _, credential = self.headers.get(AUTH_HEADER, "").partition(" ")
        if scheme == AUTH_SCHEME and hmac.compare_digest(
                credential.strip().encode(), self.server.token.encode()):
            return True
        self.fail(401, f"missing or invalid {AUTH_SCHEME} token in the "
                       f"{AUTH_HEADER} header")
        return False

    def _content_length(self) -> int:
        """The request's declared body length (0 when absent or malformed)."""
        try:
            return max(0, int(self.headers.get("Content-Length", "0")))
        except ValueError:
            return 0

    def read_body(self) -> bytes:
        """The raw request body."""
        self._body_read = True
        length = self._content_length()
        return self.rfile.read(length) if length else b""

    def read_json(self) -> dict:
        """The request body as a JSON object (400 for anything else)."""
        raw = self.read_body()
        if not raw:
            raise RouteError(400, "request body required")
        try:
            payload = json.loads(raw)
        except ValueError as error:
            raise RouteError(400, f"malformed JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise RouteError(400, "JSON body must be an object")
        return payload

    def query(self, name: str) -> str | None:
        """The first value of query parameter ``name`` (None when absent)."""
        values = parse_qs(self.query_string, keep_blank_values=True).get(name)
        return values[0] if values else None

    def fail(self, status: int, message: str) -> None:
        """Answer the structured error."""
        self.reply(status, {"schema_version": self.server.schema_version,
                            "error": message})

    def reply(self, status: int, payload: dict | bytes) -> None:
        """Send status line, headers and body in one write.

        A request whose body was never read closes the connection after
        the reply, so the unread bytes cannot be parsed as a request.
        """
        if isinstance(payload, bytes):
            body, content_type = payload, "application/octet-stream"
        else:
            body, content_type = json.dumps(payload).encode(), "application/json"
        head = [f"{self.protocol_version} {status} {self.responses[status][0]}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        if not self._body_read and (self._chunked or self._content_length()):
            self.close_connection = True
            head.append("Connection: close")
        message = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(message if self.command == "HEAD" else message + body)


def run_until_signalled(server: JSONServer, name: str, on_close) -> int:
    """Serve until SIGINT/SIGTERM, then close the server and call ``on_close``.

    Both signals trigger a clean shutdown that drains in-flight handlers;
    the last line printed is ``<name>: shut down cleanly``.  Returns the
    process exit code (0).
    """
    def _request_stop(signum, frame):
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except ValueError:            # non-main thread (tests)
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        on_close()
    print(f"{name}: shut down cleanly", flush=True)
    return 0


def request(method: str, url: str, body: dict | bytes | None = None, *,
            token: str | None = None, timeout: float) -> tuple[int, bytes]:
    """One HTTP request; returns ``(status, body)`` for any answer.

    A dict ``body`` is sent as JSON, ``bytes`` as
    ``application/octet-stream``; ``token`` adds the bearer header.
    Raises :class:`TransportError` when no HTTP answer arrives, or when
    its body is over :data:`MAX_BODY_BYTES` (only the first
    ``MAX_BODY_BYTES + 1`` bytes are read).
    """
    headers = {}
    if isinstance(body, dict):
        body = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    elif body is not None:
        headers["Content-Type"] = "application/octet-stream"
    if token:
        # Imported on use: importing repro.store imports this module.
        from repro.store.schema import AUTH_HEADER, AUTH_SCHEME

        headers[AUTH_HEADER] = f"{AUTH_SCHEME} {token}"
    prepared = urllib.request.Request(url, data=body, headers=headers,
                                      method=method)
    try:
        try:
            with urllib.request.urlopen(prepared, timeout=timeout) as response:
                return response.status, _read_capped(response)
        except urllib.error.HTTPError as error:
            with error:
                return error.code, _read_capped(error)
    except (urllib.error.URLError, http.client.HTTPException, OSError) as error:
        raise TransportError(getattr(error, "reason", None) or error) from error


def _read_capped(response) -> bytes:
    """A response body of at most :data:`MAX_BODY_BYTES` bytes."""
    body = response.read(MAX_BODY_BYTES + 1)
    if len(body) > MAX_BODY_BYTES:
        raise TransportError(f"response body exceeds the {MAX_BODY_BYTES}-"
                             f"byte limit")
    if getattr(response, "length", None):
        # A bounded read returns a truncated body short instead of raising.
        raise http.client.IncompleteRead(body, response.length)
    return body
