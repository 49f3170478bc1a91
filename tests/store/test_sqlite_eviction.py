"""Eviction policy of the sqlite tier: LRU size cap, TTL, claim expiry.

All clock-driven behaviour runs on an injected fake clock, so the tests
exercise expiry and recency ordering without sleeping.  The policy also
travels in the store's locator, so pool workers re-open it capped.
"""

import pytest

from repro.core.simulator import simulate_workload
from repro.store import SqliteStore, encode_payload, open_store


class FakeClock:
    """A manually advanced wall clock."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def outcome():
    return simulate_workload("micro_addi_chain", max_instructions=2000)


def key(index: int) -> str:
    return f"{index:02x}" * 32


def test_lru_eviction_respects_size_cap(tmp_path, outcome):
    blob_size = len(encode_payload(outcome))
    clock = FakeClock()
    store = SqliteStore(tmp_path / "s.db", max_bytes=3 * blob_size,
                        clock=clock)
    for index in range(3):
        assert store.put(key(index), outcome) is True
        clock.advance(1.0)
    assert len(store) == 3

    # Touch key 0 so key 1 becomes the least recently *accessed*.
    assert store.get(key(0)) is not None
    clock.advance(1.0)

    assert store.put(key(3), outcome) is True
    assert len(store) == 3
    assert store.contains(key(0))             # recently touched: kept
    assert not store.contains(key(1))         # LRU victim
    assert store.stats.evictions == 1

    # An entry bigger than the whole cap is refused outright.
    tiny = SqliteStore(tmp_path / "tiny.db", max_bytes=blob_size // 2)
    assert tiny.put(key(9), outcome) is False
    assert len(tiny) == 0
    tiny.close()
    store.close()


def test_ttl_expires_idle_entries(tmp_path, outcome):
    clock = FakeClock()
    store = SqliteStore(tmp_path / "s.db", ttl_s=10.0, clock=clock)
    store.put(key(0), outcome)
    clock.advance(5.0)
    assert store.contains(key(0))
    assert store.get(key(0)) is not None      # access refreshes recency
    clock.advance(9.0)
    assert store.contains(key(0))             # 9s idle < 10s TTL
    clock.advance(2.0)
    assert not store.contains(key(0))         # 11s idle: expired
    assert store.get(key(0)) is None
    assert store.stats.evictions == 1
    assert len(store) == 0                    # deleted on sight
    store.close()


def test_expired_claims_are_reclaimable(tmp_path):
    clock = FakeClock()
    store = SqliteStore(tmp_path / "s.db", clock=clock)
    assert store.claim("request/x", "alice", ttl_s=10.0) is True
    assert store.claim("request/x", "bob", ttl_s=10.0) is False
    assert store.holder("request/x") == "alice"
    clock.advance(11.0)                       # alice crashed; TTL lapsed
    assert store.holder("request/x") is None
    assert store.claim("request/x", "bob", ttl_s=10.0) is True
    assert store.holder("request/x") == "bob"
    store.close()


@pytest.mark.parametrize("policy", [
    {}, {"max_bytes": 4096}, {"ttl_s": 2.5}, {"max_bytes": 1, "ttl_s": 60.0},
])
def test_locator_round_trips_the_eviction_policy(tmp_path, policy):
    store = SqliteStore(tmp_path / "s.db", **policy)
    reopened = open_store(store.locator)
    assert isinstance(reopened, SqliteStore)
    assert reopened.path == store.path
    assert reopened.max_bytes == policy.get("max_bytes")
    assert reopened.ttl_s == policy.get("ttl_s")
    assert reopened.locator == store.locator
    if not policy:
        assert "?" not in store.locator
    reopened.close()
    store.close()


@pytest.mark.parametrize("query", ["size=10", "max_bytes=ten", "ttl_s="])
def test_locator_rejects_bad_policy_parameters(tmp_path, query):
    with pytest.raises(ValueError, match="sqlite locator parameter"):
        open_store(f"sqlite://{tmp_path / 's.db'}?{query}")


def test_pooled_run_respects_the_size_cap(tmp_path):
    from repro.core.config import RenoConfig
    from repro.harness import run_matrix
    from repro.uarch.config import MachineConfig

    store = SqliteStore(tmp_path / "s.db", max_bytes=1)
    run_matrix(["micro_addi_chain", "micro_call_spill", "micro_moves"],
               {"4wide": MachineConfig.default_4wide()},
               {"BASE": None, "RENO": RenoConfig.reno_default()},
               jobs=2, cache=store)
    assert store.size_bytes() <= store.max_bytes
    assert len(store) == 0
    store.close()
