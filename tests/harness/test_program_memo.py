"""Tests for the per-process memos behind a warm request.

A process builds each ``(workload, scale)`` program, computes its digest
and derives its tables once (:func:`repro.harness.executors.shared_program`,
:class:`repro.uarch.tables.ProgramTables`), and computes each config
digest once (:func:`repro.confighash.dataclass_digest`).  These tests pin
what the memos must not change: a warm request rebuilds, re-digests and
re-derives nothing, with or without a store, program tables serve only
their own program, the shared ``Program`` stays as built, config digests
equal the unmemoised computation, and distinct workloads never share a
slot.
"""

import copy
import hashlib
import json
import sys
import threading
from dataclasses import asdict, replace

import pytest

from repro import confighash
from repro.api import ExperimentRequest, Session, run_sliced
from repro.core import RenoConfig, RenoRenamer
from repro.functional.simulator import FunctionalSimulator
from repro.harness import executors, run_experiment, run_matrix
from repro.harness.executors import (
    PROGRAM_SLOTS,
    program_digest,
    shared_program,
    shared_program_digest,
)
from repro.uarch import tables
from repro.uarch.compiled import marshal
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.tables import program_tables
from repro.workloads.base import Workload, get_workload, list_workloads

SMALL = ["micro_addi_chain", "micro_call_spill"]


def count_calls(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so every call appends ``name`` to ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def unmemoised_digest(config) -> str:
    """The config digest as computed before it was memoised."""
    fields = asdict(config)
    fields.pop("name", None)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("cache", ["sqlite://:memory:", False],
                         ids=["memo", "cold"])
def test_second_identical_request_builds_and_digests_nothing(
        monkeypatch, cache, backend):
    request = ExperimentRequest("fig8", suite="micro", workloads=SMALL)
    with Session(jobs=1, cache=cache, backend=backend) as session:
        first = session.run(request)
        calls = []
        count_calls(monkeypatch, Workload, "build", calls)
        count_calls(monkeypatch, executors, "program_digest", calls)
        # With no store every cell runs again, on the program tables the
        # first request built.
        count_calls(monkeypatch, tables, "decode_program", calls)
        count_calls(monkeypatch, tables, "page_image", calls)
        count_calls(monkeypatch, marshal, "static_columns", calls)
        second = session.run(request)
    assert calls == []
    assert second.rows == first.rows


def test_program_tables_serve_only_their_own_program(monkeypatch):
    shared = shared_program(get_workload("micro_addi_chain"), 1)
    assert program_tables(shared) is program_tables(shared)
    assert program_tables(shared).program is shared
    other = copy.deepcopy(shared)
    assert program_tables(other) is not program_tables(other)
    # An entry under an id that another object now has is never served.
    monkeypatch.setitem(tables._shared, id(other), program_tables(shared))
    assert program_tables(other).program is other


def test_shared_program_is_unchanged_by_every_kind_of_run(tmp_path):
    scale = 1
    workloads = [get_workload(name) for name in SMALL]
    before = {w.name: copy.deepcopy(shared_program(w, scale)) for w in workloads}

    # An in-process miss hands the caller the shared program itself.
    held = run_matrix(SMALL, {"4wide": MachineConfig.default_4wide()},
                      {"RENO": RenoConfig.reno_default()}, jobs=1, cache=False)
    for figure in ("fig8", "fig9", "fig12", "bottleneck"):
        run_experiment(figure, suite="micro", workloads=SMALL, jobs=1,
                       cache=False)

    program = shared_program(workloads[1], scale)
    trace = FunctionalSimulator(program, 2_000_000).run().trace
    machine = MachineConfig.default_4wide()
    pipeline = Pipeline(program, trace, machine, renamer=RenoRenamer(
        machine.num_physical_regs, RenoConfig.reno_default()))
    run_sliced(pipeline, slice_cycles=200, checkpoint_path=tmp_path / "ckpt")

    for workload in workloads:
        shared = shared_program(workload, scale)
        outcome = held.get(workload.name, "4wide", "RENO")
        assert outcome.program is shared
        assert shared == before[workload.name]
        assert program_digest(shared) == program_digest(workload.build(scale))
        assert shared_program_digest(workload, scale) == program_digest(shared)


def test_float_valued_config_does_not_share_the_int_configs_digest():
    machine = MachineConfig.default_4wide()
    floaty = replace(machine, rob_size=128.0)
    assert floaty == machine        # the trap: dataclass == says they match
    assert machine.digest() == unmemoised_digest(machine)
    assert floaty.digest() == unmemoised_digest(floaty)
    assert floaty.digest() != machine.digest()
    reno = RenoConfig.reno_default()
    assert replace(reno, name="other").digest() == reno.digest()
    assert replace(machine, name="other").digest() == machine.digest()


def test_ad_hoc_workloads_with_one_name_get_their_own_programs():
    adds, calls = (get_workload(name) for name in SMALL)
    first = Workload("ad_hoc", "micro", builder=lambda scale: adds.build(scale))
    second = Workload("ad_hoc", "micro", builder=lambda scale: calls.build(scale))
    machines = {"4wide": MachineConfig.default_4wide()}
    digests = []
    for workload, like in ((first, adds), (second, calls)):
        result = run_matrix([workload], machines, {"BASE": None}, jobs=1,
                            cache=False)
        program = result.get("ad_hoc", "4wide", "BASE").program
        assert program_digest(program) == program_digest(like.build(1))
        digests.append(shared_program_digest(workload, 1))
    assert digests[0] != digests[1]


def test_program_memo_evicts_its_oldest_slot(monkeypatch):
    monkeypatch.setattr(executors, "_programs", {})
    monkeypatch.setattr(executors, "PROGRAM_SLOTS", 2)
    builds = []
    count_calls(monkeypatch, Workload, "build", builds)
    first, second, third = (get_workload(name) for name in
                            ("micro_addi_chain", "micro_call_spill", "micro_sum"))
    for workload in (first, second, third, third, second):
        shared_program(workload, 1)
    assert len(builds) == 3
    shared_program(first, 1)        # evicted when the third arrived
    assert len(builds) == 4


def test_program_slots_hold_every_registered_workload():
    assert PROGRAM_SLOTS >= len(list_workloads())


def test_concurrent_first_requests_build_and_digest_once(monkeypatch):
    monkeypatch.setattr(executors, "_programs", {})
    monkeypatch.setattr(confighash, "_digests", {})
    builds = []
    count_calls(monkeypatch, Workload, "build", builds)
    workloads = [get_workload(name) for name in SMALL]
    configs = [MachineConfig.default_4wide(), MachineConfig.default_6wide(),
               RenoConfig.reno_default(), RenoConfig.reno_cf_me()]
    seen = []
    start = threading.Barrier(8, timeout=60)

    def request():
        start.wait()
        for workload in workloads:
            seen.append((workload.name, shared_program(workload, 1)))
        for config in configs:
            seen.append((config, config.digest()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == len(workloads)
    assert len(seen) == 8 * (len(workloads) + len(configs))
    for key, value in seen:
        if isinstance(key, str):
            assert value is shared_program(get_workload(key), 1)
        else:
            assert value == unmemoised_digest(key)


@pytest.mark.parametrize("scale", [1, 2])
def test_scales_are_separate_slots(scale):
    workload = get_workload("micro_addi_chain")
    assert (shared_program_digest(workload, scale)
            == program_digest(workload.build(scale)))
