"""Auth and wire behaviour of the HTTP store tier.

A token-carrying ``StoreServer`` must refuse wrong or missing bearer
credentials with a structured 401 on every route except ``/healthz``,
and the client must surface that as :class:`StoreAuthError` with a
pointer at ``$REPRO_STORE_TOKEN``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.simulator import simulate_workload
from repro.store import (
    STORE_SCHEMA_VERSION,
    TOKEN_ENV,
    HTTPStore,
    SqliteStore,
    StoreAuthError,
    make_store_server,
    open_store,
)

KEY = "ab" * 32


@pytest.fixture(scope="module")
def outcome():
    return simulate_workload("micro_addi_chain", max_instructions=2000)


@pytest.fixture
def server():
    backing = SqliteStore(":memory:")
    instance = make_store_server(backing=backing, token="sekrit")
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        yield instance
    finally:
        instance.shutdown()
        instance.server_close()
        backing.close()


def test_healthz_needs_no_auth(server):
    with urllib.request.urlopen(f"{server.url}/healthz", timeout=10) as reply:
        payload = json.loads(reply.read())
    assert payload == {"schema_version": STORE_SCHEMA_VERSION, "ok": True}


def test_wrong_and_missing_tokens_answer_401(server, outcome, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    for client in (HTTPStore(server.url),               # no token at all
                   HTTPStore(server.url, token="wrong")):
        with pytest.raises(StoreAuthError) as failure:
            client.get(KEY)
        assert TOKEN_ENV in str(failure.value)
        with pytest.raises(StoreAuthError):
            client.put(KEY, outcome)
        with pytest.raises(StoreAuthError):
            client.claim("request/x", "me", 5.0)
        with pytest.raises(StoreAuthError):
            client.stats_payload()


def test_near_miss_tokens_answer_401(server, monkeypatch):
    """Same length, shared prefix or non-ASCII: only the exact token passes."""
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    for token in ("sekrix", "sekri", "sekrit2", "s\u00e9krit"):
        with pytest.raises(StoreAuthError):
            HTTPStore(server.url, token=token).get(KEY)
    assert HTTPStore(server.url, token=" sekrit ").get(KEY) is None


def test_correct_token_unlocks_every_route(server, outcome):
    client = HTTPStore(server.url, token="sekrit")
    assert client.get(KEY) is None
    assert client.put(KEY, outcome) is True
    assert client.contains(KEY)
    assert client.claim("request/x", "me", 5.0) is True
    client.release("request/x", "me")
    stats = client.stats_payload()
    assert stats["schema_version"] == STORE_SCHEMA_VERSION
    assert stats["entries"] == 1


def test_token_defaults_to_environment(server, monkeypatch):
    monkeypatch.setenv(TOKEN_ENV, "sekrit")
    client = open_store(server.url)
    assert isinstance(client, HTTPStore)
    assert client.get(KEY) is None            # authorized via $REPRO_STORE_TOKEN


def test_open_server_ignores_client_tokens(outcome):
    backing = SqliteStore(":memory:")
    instance = make_store_server(backing=backing)          # no token: open
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        client = HTTPStore(instance.url, token="anything")
        assert client.put(KEY, outcome) is True
        assert client.get(KEY) is not None
    finally:
        instance.shutdown()
        instance.server_close()
        backing.close()


def test_invalid_payload_upload_is_rejected(server):
    client = HTTPStore(server.url, token="sekrit")
    request = urllib.request.Request(
        f"{server.url}/store/blob/{KEY}", data=b"not a payload",
        headers={"Content-Type": "application/octet-stream",
                 "Authorization": "Bearer sekrit"}, method="PUT")
    with pytest.raises(urllib.error.HTTPError) as failure:
        urllib.request.urlopen(request, timeout=10)
    assert failure.value.code == 400
    assert client.contains(KEY) is False


@pytest.mark.parametrize("method,body", [("GET", None), ("POST", b"{}")])
def test_meta_routes_are_gone(server, method, body):
    """``/store/meta/<name>`` has no handler left: a structured 404."""
    request = urllib.request.Request(
        f"{server.url}/store/meta/costs", data=body, method=method,
        headers={"Content-Type": "application/json",
                 "Authorization": "Bearer sekrit"})
    with pytest.raises(urllib.error.HTTPError) as failure:
        urllib.request.urlopen(request, timeout=10)
    assert failure.value.code == 404
    payload = json.loads(failure.value.read())
    assert payload["schema_version"] == STORE_SCHEMA_VERSION
    assert "/store/meta/costs" in payload["error"]
