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
    SimulationCache,
    figure8_elimination_and_speedup,
    figure9_critical_path,
    figure10_division_of_labor,
    figure11_issue_width,
    figure11_register_file,
    figure12_scheduler,
    outcome_key,
    program_digest,
    run_matrix,
)
from repro.harness.cache import CACHE_DIR_ENV, resolve_cache
from repro.uarch.config import MachineConfig
from repro.workloads.base import get_workload

SMALL = ["micro_addi_chain", "micro_call_spill"]
MACHINES = {"4wide": MachineConfig.default_4wide()}
RENOS = {"BASE": None, "RENO": RenoConfig.reno_default()}

#: The full figure sweep of the paper's evaluation (fig8–fig12).
FIGURES = [
    figure8_elimination_and_speedup,
    figure9_critical_path,
    figure10_division_of_labor,
    figure11_register_file,
    figure11_issue_width,
    figure12_scheduler,
]


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


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: f.__name__)
def test_golden_figures_parallel_and_cached_match_serial(figure, tmp_path):
    cache = SimulationCache(tmp_path / "cache")
    serial = figure("micro", workloads=SMALL, jobs=1, cache=cache)
    assert cache.stats.stores > 0          # cold run populated the cache
    parallel = figure("micro", workloads=SMALL, jobs=2, cache=False)
    warm = figure("micro", workloads=SMALL, jobs=2, cache=cache)

    assert parallel.rows == serial.rows
    assert warm.rows == serial.rows
    assert parallel.headers == serial.headers
    assert parallel.data == serial.data
    assert warm.data == serial.data


def test_warm_cache_run_computes_nothing(tmp_path):
    cache = SimulationCache(tmp_path)
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
    cache = SimulationCache(tmp_path)
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

    cache = SimulationCache(tmp_path)
    run_matrix(SMALL[:1], MACHINES, {"BASE": None}, cache=cache)
    entry = cache.entries()[0]
    entry.write_bytes(b"not a pickle")
    assert cache.get(entry.stem) is None
    entry.write_bytes(pickle.dumps(["not", "a", "dict"]))
    assert cache.get(entry.stem) is None


def test_parallel_run_aggregates_worker_cache_stats(tmp_path):
    cache = SimulationCache(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, jobs=2, cache=cache)
    expected = len(SMALL) * len(MACHINES) * len(RENOS)
    assert cache.stats.stores == expected
    run_matrix(SMALL, MACHINES, RENOS, jobs=2, cache=cache)
    assert cache.stats.stores == expected        # warm: nothing recomputed
    assert cache.stats.hits == expected


def test_parallel_run_merges_every_worker_stats_field(tmp_path, monkeypatch):
    """Workers' duplicate puts (and every other counter) reach the parent:
    with reads forced to miss, a warm pooled re-run re-puts every cell."""
    from repro.store import DiskStore

    cache = SimulationCache(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, jobs=1, cache=cache)
    cells = len(SMALL) * len(MACHINES) * len(RENOS)
    # fork carries the patch into the pool's workers.
    monkeypatch.setattr(DiskStore, "get", lambda self, key: None)
    pooled = SimulationCache(tmp_path)
    run_matrix(SMALL, MACHINES, RENOS, jobs=2, cache=pooled)
    assert pooled.stats.duplicate_puts == cells
    assert pooled.stats.stores == 0


def test_cache_env_var_controls_default(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert resolve_cache(None) is None                # off by default
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    resolved = resolve_cache(None)
    assert resolved is not None and resolved.root == tmp_path
    assert resolve_cache(False) is None               # explicit off wins
    run_matrix(SMALL[:1], MACHINES, {"BASE": None})   # cache=None → env cache
    assert len(SimulationCache(tmp_path)) == 1


def test_cache_clear(tmp_path):
    cache = SimulationCache(tmp_path)
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
