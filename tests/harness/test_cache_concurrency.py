"""Multi-process stress tests for concurrent-writer safety in the cache.

Parallel Sessions sharing one ``$REPRO_CACHE_DIR`` write two kinds of
shared files: content-addressed outcome entries (atomic temp-file + rename,
last-writer-wins is fine because the content is identical) and meta
documents (``DiskStore.merge_meta``: read-modify-write of
``<root>/<name>.json``, guarded by the ``flock`` file lock).  These tests
hammer both from real processes and assert nothing is lost or torn.
"""

import json
import multiprocessing
import pickle

import pytest

from repro.harness.cache import SimulationCache, file_lock
from repro.store import DiskStore

WRITERS = 4
RECORDS_PER_WRITER = 6


def _hammer_meta(root: str, writer: int) -> None:
    store = DiskStore(root)
    for index in range(RECORDS_PER_WRITER):
        store.merge_meta("shared", {f"w{writer}-{index}": 0.001 * (writer + 1)})


def _hammer_cache_puts(root: str, writer: int) -> None:
    """Everyone writes the same keys concurrently (the racing-worker case)."""
    cache = SimulationCache(root)
    payload_dir = cache.root
    payload_dir.mkdir(parents=True, exist_ok=True)
    for round_number in range(RECORDS_PER_WRITER):
        for key_number in range(4):
            # Reach the atomic write machinery directly with a tiny stand-in
            # payload: SimulationCache.put pickles (version, timing, reno).
            path = cache.path_for(f"{key_number:02x}" + "ab" * 31)
            path.parent.mkdir(parents=True, exist_ok=True)
            cache._store_failure_warned = True
            import os
            import tempfile
            descriptor, temp_name = tempfile.mkstemp(dir=path.parent,
                                                     suffix=".tmp")
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump({"version": 1, "writer": writer,
                             "round": round_number}, handle)
            os.replace(temp_name, path)


@pytest.fixture()
def spawn_context():
    # fork is what the engine uses, but spawn also exercises cold modules;
    # use fork when available for speed, else whatever the platform has.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else methods[0])


def test_parallel_meta_merges_lose_nothing(tmp_path, spawn_context):
    processes = [
        spawn_context.Process(target=_hammer_meta,
                              args=(str(tmp_path), writer))
        for writer in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0

    stored = json.loads((tmp_path / "shared.json").read_text())
    expected = {
        f"w{writer}-{index}"
        for writer in range(WRITERS)
        for index in range(RECORDS_PER_WRITER)
    }
    # The whole point of the lock: every writer's entries survive.
    assert expected <= set(stored)
    assert all(isinstance(value, float) for value in stored.values())


def test_parallel_same_key_entry_writes_never_tear(tmp_path, spawn_context):
    processes = [
        spawn_context.Process(target=_hammer_cache_puts,
                              args=(str(tmp_path / "cache"), writer))
        for writer in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0

    cache = SimulationCache(tmp_path / "cache")
    entries = cache.entries()
    assert len(entries) == 4
    for path in entries:
        payload = pickle.loads(path.read_bytes())   # never torn/partial
        assert payload["version"] == 1
        assert 0 <= payload["writer"] < WRITERS


def test_file_lock_is_mutually_exclusive(tmp_path):
    target = tmp_path / "shared.json"
    with file_lock(target) as held:
        assert held is True
        # A second contender times out onto the degraded (unlocked) path.
        with file_lock(target, timeout=0.05) as second:
            assert second is False
    # Released: the next acquisition succeeds immediately.
    with file_lock(target, timeout=0.05) as held:
        assert held is True


def test_file_lock_ignores_a_dead_holders_leftover_file(tmp_path):
    """Kernel flocks die with their holder, so a leftover ``.lock`` file
    from a crashed process carries no lock and never blocks — the stale
    state the old O_EXCL scheme had to detect cannot exist."""
    target = tmp_path / "shared.json"
    lock = tmp_path / "shared.json.lock"
    lock.write_text("leftover from a dead process")
    with file_lock(target, timeout=0.5) as held:
        assert held is True             # acquired immediately
