"""Tests for the parallel, cached experiment engine.

Covers the golden-figure regression (parallel and cached re-runs must
reproduce the serial, cold-cache report rows byte-for-byte), cache key and
round-trip behaviour, cross-invocation and cross-process determinism, and
the matrix lookup error.
"""

import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.config import RenoConfig
from repro.harness import (
    MatrixLookupError,
    outcome_key,
    program_digest,
    run_experiment,
    run_matrix,
)
from repro.harness.executors import resolve_cache
from repro.store import SqliteStore
from repro.store.disk import CACHE_DIR_ENV, DiskStore
from repro.uarch.config import MachineConfig
from repro.workloads.base import get_workload

SMALL = ["micro_addi_chain", "micro_call_spill"]
MACHINES = {"4wide": MachineConfig.default_4wide()}
RENOS = {"BASE": None, "RENO": RenoConfig.reno_default()}

#: The full figure sweep of the paper's evaluation (fig8–fig12).
FIGURES = ["fig8", "fig9", "fig10", "fig11_regs", "fig11_width", "fig12"]


def outcome_fields(outcome) -> dict:
    """Every report-relevant field of a SimulationOutcome, as plain data."""
    return {
        "stats": asdict(outcome.timing.stats),
        "final_registers": outcome.timing.final_registers,
        "cycles": outcome.cycles,
        "ipc": outcome.ipc,
        "timing_records": outcome.timing.timing_records,
    }


# ---------------------------------------------------------------------------
# Golden-figure regression: serial == parallel == cached, byte for byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure", FIGURES)
def test_golden_figures_parallel_and_cached_match_serial(figure, tmp_path):
    cache = DiskStore(tmp_path / "cache")
    serial = run_experiment(figure, suite="micro", workloads=SMALL, jobs=1,
                            cache=cache)
    assert cache.stats.stores > 0          # cold run populated the cache
    parallel = run_experiment(figure, suite="micro", workloads=SMALL, jobs=2,
                              cache=False)
    warm = run_experiment(figure, suite="micro", workloads=SMALL, jobs=2,
                          cache=cache)

    assert parallel.rows == serial.rows
    assert warm.rows == serial.rows
    assert parallel.headers == serial.headers
    assert parallel.data == serial.data
    assert warm.data == serial.data


def test_warm_cache_run_computes_nothing(tmp_path):
    cache = DiskStore(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, cache=cache)
    stores_after_cold = cache.stats.stores
    assert stores_after_cold == len(SMALL) * len(MACHINES) * len(RENOS)
    warm = run_matrix(SMALL, MACHINES, RENOS, cache=cache)
    assert cache.stats.stores == stores_after_cold   # nothing recomputed
    assert cache.stats.hits >= stores_after_cold
    for outcome in warm.outcomes.values():
        assert outcome.cached
        assert outcome.program is None and outcome.functional is None


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_run_matrix_is_deterministic_across_invocations_and_jobs():
    first = run_matrix(SMALL, MACHINES, RENOS, collect_timing=True)
    second = run_matrix(SMALL, MACHINES, RENOS, collect_timing=True)
    parallel = run_matrix(SMALL, MACHINES, RENOS, collect_timing=True, jobs=2)
    assert list(first.outcomes) == list(second.outcomes) == list(parallel.outcomes)
    for key in first.outcomes:
        reference = outcome_fields(first.outcomes[key])
        assert outcome_fields(second.outcomes[key]) == reference
        assert outcome_fields(parallel.outcomes[key]) == reference


def test_simulation_is_deterministic_across_processes():
    """Hash randomisation must not leak into results (IT set placement)."""
    script = (
        "from repro.harness import run_matrix\n"
        "from repro.core.config import RenoConfig\n"
        "from repro.uarch.config import MachineConfig\n"
        "m = run_matrix(['micro_call_spill'], {'m': MachineConfig.default_4wide()},\n"
        "               {'RENO': RenoConfig.reno_default()})\n"
        "o = m.get('micro_call_spill', 'm', 'RENO')\n"
        "print(o.cycles, o.stats.total_eliminated, o.stats.it_hits)\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        # A warm cache would make both subprocesses trivially identical and
        # the hash-randomisation check vacuous; force real simulations.
        env.pop(CACHE_DIR_ENV, None)
        env.pop("REPRO_JOBS", None)
        src_dir = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        outputs.add(result.stdout)
    assert len(outputs) == 1, f"results depend on the process hash seed: {outputs}"


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


def test_cache_roundtrip_preserves_timing_results(tmp_path):
    cache = DiskStore(tmp_path)
    matrix = run_matrix(SMALL[:1], MACHINES, RENOS, collect_timing=True, cache=cache)
    warm = run_matrix(SMALL[:1], MACHINES, RENOS, collect_timing=True, cache=cache)
    for key in matrix.outcomes:
        assert outcome_fields(warm.outcomes[key]) == outcome_fields(matrix.outcomes[key])


def test_cache_key_separates_configs_and_budgets():
    program = get_workload("micro_addi_chain").build(1)
    digest = program_digest(program)
    machine = MachineConfig.default_4wide()
    keys = {
        outcome_key(digest, machine, None, 2_000_000, False),
        outcome_key(digest, machine, RenoConfig.reno_default(), 2_000_000, False),
        outcome_key(digest, machine, RenoConfig.reno_cf_me(), 2_000_000, False),
        outcome_key(digest, machine.with_registers(96), None, 2_000_000, False),
        outcome_key(digest, machine, None, 1_000_000, False),
        outcome_key(digest, machine, None, 2_000_000, True),
    }
    assert len(keys) == 6


def test_outcome_key_bytes_are_pinned():
    """Every existing store is addressed by these bytes: a change here must
    come with a ``CACHE_FORMAT_VERSION`` bump, never by accident."""
    digest = program_digest(get_workload("micro_addi_chain").build(1))
    assert digest == ("ee6c992f74c8c8b08e23d99774cf7008"
                      "e2938a6a7c430ca43f57ed352c74d070")
    machine = MachineConfig.default_4wide()
    assert outcome_key(digest, machine, None, 2_000_000, False, False) == (
        "c67bdc133967a26b83b2cf4363b7256fd5a941c332b5032c7ee4145fe58448ab")
    assert outcome_key(digest, machine, RenoConfig.reno_default(), 2_000_000,
                       True, True) == (
        "1eff88569e1ac32eb336dcc8f8e4866646da1b36e0c487fb8faff03b242317d2")


def test_config_digest_ignores_label_but_not_behaviour():
    base = MachineConfig.default_4wide()
    relabelled = MachineConfig(name="other")
    assert base.digest() == relabelled.digest()
    assert base.digest() != base.with_scheduler_latency(2).digest()

    reno = RenoConfig.reno_default()
    assert reno.digest() == RenoConfig(name="relabelled").digest()
    assert reno.digest() != reno.with_slow_fusion().digest()
    assert reno.digest() != RenoConfig.reno_cf_me().digest()


def test_config_dict_roundtrip():
    machine = MachineConfig.default_6wide().with_registers(96)
    assert MachineConfig.from_dict(machine.to_dict()) == machine
    reno = RenoConfig.reno_full_integration()
    assert RenoConfig.from_dict(reno.to_dict()) == reno


def test_program_digest_tracks_content_not_name():
    build = get_workload("micro_addi_chain").build
    assert program_digest(build(1)) == program_digest(build(1))
    assert program_digest(build(1)) != program_digest(build(2))
    other = get_workload("micro_call_spill").build(1)
    assert program_digest(build(1)) != program_digest(other)


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    import pickle

    cache = DiskStore(tmp_path)
    key = outcome_key(program_digest(get_workload(SMALL[0]).build(1)),
                      MACHINES["4wide"], None, 2_000_000, False)
    for blob in (b"not a pickle", pickle.dumps(["not", "a", "dict"])):
        run_matrix(SMALL[:1], MACHINES, {"BASE": None}, cache=cache)
        assert cache.contains(key)
        with cache._lock:
            cache._db.execute("UPDATE blobs SET payload = ? WHERE key = ?",
                              (blob, key))
            cache._db.commit()
        assert cache.get(key) is None
        assert not cache.contains(key)
    assert cache.stats.stores == 2            # each corrupt entry recomputed


def test_parallel_run_aggregates_worker_cache_stats(tmp_path):
    cache = DiskStore(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, jobs=2, cache=cache)
    expected = len(SMALL) * len(MACHINES) * len(RENOS)
    assert cache.stats.stores == expected
    run_matrix(SMALL, MACHINES, RENOS, jobs=2, cache=cache)
    assert cache.stats.stores == expected        # warm: nothing recomputed
    assert cache.stats.hits == expected


def test_parallel_run_merges_every_worker_stats_field(tmp_path, monkeypatch):
    """Workers' duplicate puts (and every other counter) reach the parent:
    with reads forced to miss, a warm pooled re-run re-puts every cell."""
    cache = DiskStore(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, jobs=1, cache=cache)
    cells = len(SMALL) * len(MACHINES) * len(RENOS)
    # fork carries the patch into the pool's workers.
    monkeypatch.setattr(DiskStore, "get", lambda self, key: None)
    pooled = DiskStore(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, jobs=2, cache=pooled)
    assert pooled.stats.duplicate_puts == cells
    assert pooled.stats.stores == 0


def test_in_memory_store_with_a_pool_runs_in_process():
    """Workers re-opening ``sqlite://:memory:`` would each get an empty
    database of their own: the outcomes must land in the caller's store."""
    store = SqliteStore(":memory:")
    cells = len(SMALL) * 4
    run_experiment("fig8", suite="micro", workloads=SMALL, jobs=2, cache=store)
    assert len(store) - 1 == store.stats.stores == cells   # + report memo
    run_experiment("fig8", suite="micro", workloads=SMALL, jobs=2, cache=store)
    assert store.stats.report_hits == 1 and store.stats.hits == 0
    with store._lock:                    # without the memo: cell reads
        store._db.execute("DELETE FROM blobs WHERE key LIKE 'report/%'")
    run_experiment("fig8", suite="micro", workloads=SMALL, jobs=2, cache=store)
    assert store.stats.hits == cells and store.stats.stores == cells


def test_in_memory_store_with_a_fleet_runs_in_process():
    from repro.api.fleet import FleetExecutor

    store = SqliteStore(":memory:")
    with FleetExecutor(workers=0, respawn=False, stall_timeout_s=5.0) as fleet:
        run_matrix(SMALL, MACHINES, RENOS, executor=fleet, cache=store)
        assert fleet.url is None              # the fleet never started
    assert len(store) == store.stats.stores == len(SMALL) * len(RENOS)


def test_cache_env_var_controls_default(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert resolve_cache(None) is None                # off by default
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    resolved = resolve_cache(None)
    assert resolved is not None and resolved.root == tmp_path
    assert resolve_cache(False) is None               # explicit off wins
    run_matrix(SMALL[:1], MACHINES, {"BASE": None})   # cache=None → env cache
    assert len(DiskStore(tmp_path)) == 1


def test_cache_clear(tmp_path):
    cache = DiskStore(tmp_path)
    run_matrix(SMALL[:1], MACHINES, RENOS, cache=cache)
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Matrix lookup errors
# ---------------------------------------------------------------------------


def test_matrix_lookup_error_names_the_missing_triple():
    matrix = run_matrix(SMALL[:1], MACHINES, {"BASE": None})
    with pytest.raises(MatrixLookupError) as excinfo:
        matrix.get("micro_addi_chain", "4wide", "RENO")
    message = str(excinfo.value)
    assert "reno='RENO'" in message
    assert "machine='4wide'" in message
    assert "'BASE'" in message            # the labels that do exist
    assert isinstance(excinfo.value, KeyError)
    assert excinfo.value.triple == ("micro_addi_chain", "4wide", "RENO")


def test_speedup_raises_the_same_error_for_missing_baseline():
    matrix = run_matrix(SMALL[:1], MACHINES, {"RENO": RenoConfig.reno_default()})
    with pytest.raises(MatrixLookupError, match="BASE"):
        matrix.speedup("micro_addi_chain", "4wide", "RENO")
