"""The fleet over an HTTP store only: no shared filesystem, auth required.

The acceptance shape of the store subsystem: a ``FleetExecutor`` with two
real worker subprocesses where every outcome travels through a
token-authenticated ``repro store-serve`` — the workers share *no*
directory with the broker — must reproduce ``SerialExecutor`` reports
byte-for-byte, and a second identical run must be pure store hits.
"""

import json
import threading

import pytest

from repro.api.fleet import FleetExecutor
from repro.harness.spec import run_experiment
from repro.store import TOKEN_ENV, SqliteStore, make_store_server

WORKLOADS = ["micro_addi_chain", "micro_call_spill"]

#: fig8 over two workloads: 2 workloads x 2 machines x 2 RENO configs.
EXPECTED_CELLS = 8


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture
def store_server(tmp_path, monkeypatch):
    """A token-authenticated store server; the token rides the env the
    worker subprocesses inherit."""
    monkeypatch.setenv(TOKEN_ENV, "fleet-secret")
    backing = SqliteStore(tmp_path / "store.sqlite3")
    server = make_store_server(backing=backing, token="fleet-secret")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        backing.close()


def test_fleet_over_http_store_matches_serial_byte_for_byte(store_server):
    serial = run_experiment("fig8", suite="micro", workloads=WORKLOADS,
                            jobs=1, cache=False)
    executor = FleetExecutor(workers=2, cache=store_server.url)
    try:
        fleet = run_experiment("fig8", suite="micro", workloads=WORKLOADS,
                               executor=executor, cache=store_server.url)
        assert report_json(fleet) == report_json(serial)

        stats = store_server.backing.stats_payload()
        assert stats["entries"] == EXPECTED_CELLS + 1   # and the report memo
        assert stats["stores"] == EXPECTED_CELLS

        # Second identical run: the report memo answers it over HTTP
        # before any cell key is derived or any cell reaches the broker.
        warm = run_experiment("fig8", suite="micro", workloads=WORKLOADS,
                              executor=executor, cache=store_server.url)
        assert report_json(warm) == report_json(serial)
        warm_stats = store_server.backing.stats_payload()
        assert warm_stats["report_hits"] == stats["report_hits"] + 1
        assert warm_stats["stores"] == EXPECTED_CELLS   # nothing new stored
        assert warm_stats["hits"] == stats["hits"]      # no cell read

        # Without the memo, every cell answers from the store before any
        # cell is even submitted to the broker.
        with store_server.backing._lock:
            store_server.backing._db.execute(
                "DELETE FROM blobs WHERE key LIKE 'report/%'")
            store_server.backing._db.commit()
        rewarm = run_experiment("fig8", suite="micro", workloads=WORKLOADS,
                                executor=executor, cache=store_server.url)
        assert report_json(rewarm) == report_json(serial)
        rewarm_stats = store_server.backing.stats_payload()
        assert rewarm_stats["stores"] == EXPECTED_CELLS
        assert rewarm_stats["hits"] >= stats["hits"] + EXPECTED_CELLS
    finally:
        executor.close()
