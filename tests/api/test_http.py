"""The shared HTTP layer (``repro.api.http``) under all three servers.

``repro serve``, the fleet broker and ``repro store-serve`` are route
tables over one server base.  Each is checked here for what the base
promises: single-write replies that do not stall a keep-alive
connection, a 413 for an oversized body before it is read, one 411 and a
closed connection for a chunked body, and a route table that equals the
endpoint table in its module docstring and in its page under ``docs/``.
The client helper and the shared ``wait`` clamp are unit-tested at the
end.
"""

import http.client
import json
import re
import socket
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.api import Session, fleet, make_fleet_server, make_server, service
from repro.api import http as api_http
from repro.api.http import (
    MAX_BODY_BYTES,
    RouteError,
    TransportError,
    clamp_wait,
    request,
)
from repro.core.simulator import simulate_workload
from repro.store import HTTPStore, make_store_server
from repro.store import http as store_http

DOCS = Path(__file__).resolve().parent.parent.parent / "docs"

#: name -> (factory, module documenting its routes, docs page)
SERVERS = {
    "serve": (lambda: make_server(port=0, session=Session(jobs=1, cache=False)),
              service, "service.md"),
    "fleet": (lambda: make_fleet_server(port=0), fleet, "fleet.md"),
    "store": (lambda: make_store_server(port=0), store_http, "store.md"),
}


@pytest.fixture(params=sorted(SERVERS))
def running(request):
    """(name, server) for each of the three servers, serving on a thread."""
    name = request.param
    server = SERVERS[name][0]()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield name, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        if name == "serve":
            server.session.close(wait=False)
        elif name == "store":
            server.backing.close()


def connect(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


def test_keep_alive_round_trips_do_not_stall(running):
    """Headers and body leave in one write: a reply written in two stalls
    each keep-alive round trip ~40 ms (Nagle plus delayed ACK)."""
    _, server = running
    connection = connect(server)
    samples = []
    for _ in range(20):
        start = time.perf_counter()
        connection.request("GET", "/healthz")
        reply = connection.getresponse()
        payload = json.loads(reply.read())
        samples.append(time.perf_counter() - start)
        assert reply.status == 200 and payload["ok"] is True
    connection.close()
    assert statistics.median(samples) < 0.010, samples


def test_oversized_body_answers_413_before_reading(running):
    _, server = running
    method, path, _ = next(route for route in server.routes
                           if route[0] in ("POST", "PUT"))
    connection = connect(server)
    connection.putrequest(method, path.replace("<key>", "ab" * 32))
    connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
    connection.endheaders()                 # the body never follows
    reply = connection.getresponse()
    payload = json.loads(reply.read())
    connection.close()
    assert reply.status == 413
    assert reply.getheader("Connection") == "close"
    assert payload == {"schema_version": server.schema_version,
                       "error": payload["error"]}
    assert str(MAX_BODY_BYTES) in payload["error"]


def test_chunked_body_answers_one_411_and_closes(running):
    """A body sent with Transfer-Encoding is refused, never parsed as the
    next request: exactly one structured reply, then end of stream."""
    _, server = running
    method, path, _ = next(route for route in server.routes
                           if route[0] == "POST")
    body = json.dumps({"token": "request/x", "owner": "me"}).encode()
    with socket.create_connection(server.server_address[:2],
                                  timeout=30) as raw:
        raw.sendall(f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                    f"Transfer-Encoding: chunked\r\n\r\n"
                    f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n")
        data = b""
        while chunk := raw.recv(65536):
            data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers["Content-Length"])
    assert lines[0].startswith("HTTP/1.1 411 "), data
    assert headers["Connection"] == "close"
    payload = json.loads(rest[:length])
    assert payload == {"schema_version": server.schema_version,
                       "error": payload["error"]}
    assert rest[length:] == b"", data


def documented_routes(text: str, row: str) -> set[tuple[str, str]]:
    return set(re.findall(row, text, flags=re.MULTILINE))


def test_route_table_matches_the_documented_endpoints(running):
    name, server = running
    _, module, page = SERVERS[name]
    routes = {(method, path) for method, path, _ in server.routes}
    docstring = documented_routes(
        module.__doc__, r"^\s*(GET|HEAD|POST|PUT)\s+``(/[^`]*)``")
    markdown = documented_routes(
        (DOCS / page).read_text(), r"^\| (GET|HEAD|POST|PUT) \| `(/[^`]*)` \|")
    assert routes == docstring
    assert routes == markdown


def test_unknown_path_answers_the_structured_404(running):
    _, server = running
    status, body = request("GET", server.url + "/nope", timeout=30)
    assert status == 404
    assert json.loads(body) == {"schema_version": server.schema_version,
                                "error": "unknown path '/nope'"}


def test_request_raises_transport_error_when_nobody_answers():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(TransportError):
        request("GET", f"http://127.0.0.1:{port}/healthz", timeout=5)


def test_request_refuses_a_response_body_over_the_cap(monkeypatch):
    server = make_store_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        key = "ab" * 32
        outcome = simulate_workload("micro_addi_chain", max_instructions=2000)
        assert HTTPStore(server.url).put(key, outcome)
        status, blob = request("GET", f"{server.url}/store/blob/{key}",
                               timeout=30)
        assert status == 200
        monkeypatch.setattr(api_http, "MAX_BODY_BYTES", len(blob) - 1)
        with pytest.raises(TransportError, match=str(len(blob) - 1)):
            request("GET", f"{server.url}/store/blob/{key}", timeout=30)
        with pytest.raises(TransportError, match="limit"):
            request("GET", f"{server.url}/nope/" + "x" * len(blob),
                    timeout=30)                 # an oversized error body
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        server.backing.close()


@pytest.mark.parametrize("value,expected", [
    (None, 0.0), (0, 0.0), ("2.5", 2.5), (7, 7.0), (-3, 0.0),
    ("99999", 30.0), (float("inf"), 30.0),
])
def test_clamp_wait(value, expected):
    assert clamp_wait(value, 30.0) == expected


@pytest.mark.parametrize("value", ["abc", "", "nan", "1.5x", float("nan"),
                                   [5], {"s": 1}])
def test_clamp_wait_rejects_non_numbers(value):
    with pytest.raises(RouteError) as refusal:
        clamp_wait(value, 30.0)
    assert refusal.value.status == 400
    assert "wait" in str(refusal.value)
