"""Tests for the critical-path model and report formatting."""

import pickle
import random
from array import array

import pytest

from repro.analysis import analyze_critical_path, format_percent, format_table
from repro.core import RenoConfig, simulate_workload
from repro.store.base import decode_payload, encode_payload
from repro.uarch import inflight
from repro.uarch.inflight import (
    STATIC_COLUMNS,
    TIMING_COLUMNS,
    TimingColumns,
    TimingRecord,
)


def record(seq, dispatch, issue, complete, producers=(), is_load=False, dcache=0,
           eliminated=False):
    return TimingRecord(
        seq=seq, opcode="add", fetch_cycle=dispatch, dispatch_cycle=dispatch,
        issue_cycle=issue, complete_cycle=complete, retire_cycle=complete + 1,
        is_load=is_load, is_store=False, is_branch=False, mispredicted=False,
        eliminated=eliminated, dcache_latency=dcache, latency=1,
        source_producers=tuple(producers),
    )


def columns_of(records):
    """The :class:`TimingColumns` of ``records`` (numbered 0..n-1, at most
    three producers each)."""
    columns = {name: [getattr(record, name) for record in records]
               for name in (*tuple(TIMING_COLUMNS)[:8], *STATIC_COLUMNS)}
    columns["nprod"] = [len(record.source_producers) for record in records]
    padded = [(*record.source_producers, 0, 0, 0) for record in records]
    for index in range(3):
        columns[f"prod{index}"] = [sources[index] for sources in padded]
    return TimingColumns(columns, len(records))


@pytest.fixture
def no_records(monkeypatch):
    """Fail the test if anything builds a :class:`TimingRecord`."""
    def refuse(*args, **kwargs):
        pytest.fail("a TimingRecord was built")
    monkeypatch.setattr(inflight, "TimingRecord", refuse)


def test_empty_records_give_empty_breakdown():
    breakdown = analyze_critical_path(columns_of([]))
    assert breakdown.total == 0


def test_serial_chain_is_charged_to_alu():
    records = [record(0, 0, 1, 2)]
    for seq in range(1, 10):
        records.append(record(seq, 0, seq + 1, seq + 2, producers=(seq - 1,)))
    breakdown = analyze_critical_path(columns_of(records))
    assert breakdown.alu_exec > breakdown.fetch


def test_fetch_limited_code_is_charged_to_fetch():
    # Independent instructions whose completion is limited by dispatch time.
    records = [record(seq, seq, seq + 1, seq + 2) for seq in range(20)]
    breakdown = analyze_critical_path(columns_of(records))
    assert breakdown.fetch > breakdown.alu_exec


def test_load_miss_chain_is_charged_to_memory():
    records = [record(0, 0, 1, 2)]
    for seq in range(1, 6):
        records.append(record(seq, 0, seq, seq * 120, producers=(seq - 1,),
                              is_load=True, dcache=112))
    breakdown = analyze_critical_path(columns_of(records))
    assert breakdown.load_mem > breakdown.load_exec
    assert breakdown.load_mem > breakdown.alu_exec


def test_fractions_sum_to_one():
    records = [record(seq, seq, seq + 1, seq + 2, producers=(seq - 1,) if seq else ())
               for seq in range(30)]
    fractions = analyze_critical_path(columns_of(records)).fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def record_walk(records):
    """The Fields walk over records by seq, as it was before the columns:
    the reference the column walk is held to."""
    if not records:
        return (0, 0, 0, 0, 0, 0)
    by_seq = {record.seq: record for record in records}
    last = by_seq[max(by_seq)]
    commit = max(0, last.retire_cycle - last.complete_cycle)
    fetch = alu = load = mem = length = 0
    current = last
    for _ in range(len(records) + 8):
        data_pred = None
        for producer in current.source_producers:
            candidate = by_seq.get(producer) if producer >= 0 else None
            if candidate is not None and (
                    data_pred is None
                    or candidate.complete_cycle > data_pred.complete_cycle):
                data_pred = candidate
        data_bound = (data_pred is not None
                      and data_pred.complete_cycle >= current.dispatch_cycle)
        predecessor = data_pred if data_bound else by_seq.get(current.seq - 1)
        length += 1
        if predecessor is None or predecessor.seq >= current.seq:
            fetch += max(0, current.complete_cycle)
            break
        cost = current.complete_cycle - predecessor.complete_cycle
        if cost > 0:
            if not data_bound:
                fetch += cost
            elif not current.is_load or current.eliminated:
                alu += cost
            elif current.dcache_latency > 10:
                mem += cost
            else:
                load += cost
        current = predecessor
    return (fetch, alu, load, mem, commit, length)


def test_the_column_walk_matches_the_record_walk_on_random_records():
    """Ties, dangling and forward producers, empty producer lists."""
    rng = random.Random(1234)
    for _ in range(400):
        count = rng.randint(1, 40)
        records = []
        for seq in range(count):
            producers = tuple(
                rng.choice([-1, rng.randrange(count + 3),
                            rng.randrange(seq) if seq else -1])
                for _ in range(rng.randint(0, 3)))
            dispatch = rng.randint(0, 20)
            records.append(record(
                seq, dispatch, dispatch + 1, dispatch + rng.randint(0, 6),
                producers=producers, is_load=rng.random() < 0.5,
                dcache=rng.choice([1, 4, 11, 120]),
                eliminated=rng.random() < 0.2))
        breakdown = analyze_critical_path(columns_of(records))
        assert (breakdown.fetch, breakdown.alu_exec, breakdown.load_exec,
                breakdown.load_mem, breakdown.commit,
                breakdown.path_length) == record_walk(records)


def test_timing_columns_build_their_records_only_when_indexed():
    records = [record(seq, seq, seq + 1, seq + 2,
                      producers=(seq - 1,) if seq else ())
               for seq in range(5)]
    columns = columns_of(records)
    assert len(columns) == 5 and columns._records is None
    assert columns.column("complete_cycle") == [2, 3, 4, 5, 6]
    assert columns.column("prod0") == [0, 0, 1, 2, 3]
    assert list(columns) == records and columns[3] is columns.records[3]


def test_timing_columns_compare_and_pickle_as_their_columns(no_records):
    records = [record(seq, seq, seq + 1, seq + 2, producers=(seq - 1,),
                      eliminated=seq == 2)
               for seq in range(5)]
    columns = columns_of(records)
    # The kernel's form: int64 buffers longer than the run, ints for bools.
    kernel = TimingColumns(
        {name: (array("q", [*map(int, column), 7, 7])
                if name in TIMING_COLUMNS else column)
         for name, column in columns._columns.items()}, 5)
    assert kernel == columns and columns == kernel
    assert columns != records
    assert columns != TimingColumns(columns._columns, 4)
    changed = dict(columns._columns, prod0=[-1, 0, 1, 2, 4])
    assert columns != TimingColumns(changed, 5)
    for original in (columns, kernel):
        restored = pickle.loads(pickle.dumps(original))
        assert type(restored) is TimingColumns and restored == columns
        assert all(type(column) is list and len(column) == 5
                   for column in restored._columns.values())
    assert analyze_critical_path(kernel) == analyze_critical_path(columns)


def test_critical_path_from_real_simulation():
    outcome = simulate_workload("micro_pointer_chase", reno=RenoConfig.reno_default(),
                                collect_timing=True)
    breakdown = analyze_critical_path(outcome.timing.timing_records)
    assert breakdown.total > 0
    # Pointer chasing is load-latency dominated.
    assert breakdown.load_exec + breakdown.load_mem > breakdown.alu_exec


def test_python_loop_and_store_payload_timing_records_are_columns(no_records):
    """The python loop's records and their store round trip are columns,
    and neither the round trip nor the walk over either builds a record."""
    outcome = simulate_workload("micro_pointer_chase",
                                reno=RenoConfig.reno_cf_me(),
                                collect_timing=True, backend="python")
    records = outcome.timing.timing_records
    assert isinstance(records, TimingColumns)
    decoded = decode_payload(encode_payload(outcome)).timing.timing_records
    assert isinstance(decoded, TimingColumns)
    assert decoded == records and len(decoded) == len(records) > 0
    breakdown = analyze_critical_path(records)
    assert breakdown.path_length > 1
    assert analyze_critical_path(decoded) == breakdown
    assert records._records is None and decoded._records is None


def test_format_percent():
    assert format_percent(0.1234) == "12.3%"
    assert format_percent(0.05, signed=True) == "+5.0%"


def test_format_table_alignment_and_title():
    table = format_table(["a", "bench"], [["1", "x"], ["22", "yy"]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "bench" in lines[2]
    assert len(lines) == 6
