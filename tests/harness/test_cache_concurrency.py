"""Multi-process stress tests for concurrent-writer safety in the store.

Parallel Sessions and pool workers sharing one store write
content-addressed outcome entries (conditional puts: the first writer
wins, every later put of the key is a counted duplicate).  These tests
hammer them from real processes and assert nothing is lost, torn or
stored twice.
"""

import multiprocessing

import pytest

from repro.core.simulator import simulate_workload
from repro.store import DiskStore

WRITERS = 4
RECORDS_PER_WRITER = 6
KEYS = [f"{key_number:02x}" + "ab" * 31 for key_number in range(4)]


def _hammer_cache_puts(root: str, outcome, results) -> None:
    """Everyone puts the same keys concurrently (the racing-worker case)."""
    store = DiskStore(root)
    for _ in range(RECORDS_PER_WRITER):
        for key in KEYS:
            store.put(key, outcome)
    results.put(store.stats())


@pytest.fixture()
def spawn_context():
    # fork is what the engine uses, but spawn also exercises cold modules;
    # use fork when available for speed, else whatever the platform has.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else methods[0])


def _run_all(processes) -> None:
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0


def test_parallel_same_key_puts_store_each_key_once(tmp_path, spawn_context):
    outcome = simulate_workload("micro_addi_chain", max_instructions=2000)
    results = spawn_context.Queue()
    processes = [
        spawn_context.Process(target=_hammer_cache_puts,
                              args=(str(tmp_path / "cache"), outcome, results))
        for _ in range(WRITERS)
    ]
    _run_all(processes)
    stats = [results.get(timeout=10) for _ in processes]

    store = DiskStore(tmp_path / "cache")
    assert len(store) == len(KEYS)
    assert sum(entry["stores"] for entry in stats) == len(KEYS)
    assert sum(entry["duplicate_puts"] for entry in stats) == (
        WRITERS * RECORDS_PER_WRITER * len(KEYS) - len(KEYS))
    for key in KEYS:                    # never torn or partial
        loaded = store.get(key)
        assert loaded is not None and loaded.cycles == outcome.cycles
