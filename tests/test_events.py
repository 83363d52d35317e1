"""Record-to-trace-operation expansion (the host side of §4.2)."""

import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.detector as detector_module
import repro.events as events_module
from repro.columnar import ColumnarBatch
from repro.core.detector import BarracudaDetector
from repro.events import (
    LogRecord,
    RecordKind,
    cell_offsets,
    record_to_ops,
)
from repro.trace import (
    Barrier,
    Else,
    EndInsn,
    Fi,
    GridLayout,
    If,
    Read,
    Scope,
    Space,
    Write,
)
from repro.trace.operations import AcqRel, Acquire, Atomic, Release

LAYOUT = GridLayout(num_blocks=2, threads_per_block=8, warp_size=4)


def test_load_record_expands_to_reads_plus_endi():
    record = LogRecord(
        kind=RecordKind.LOAD,
        warp=1,
        active=frozenset({4, 6}),
        addrs={4: (Space.GLOBAL, 0x10), 6: (Space.GLOBAL, 0x20)},
    )
    ops = record_to_ops(record, LAYOUT)
    assert [type(op) for op in ops] == [Read, Read, EndInsn]
    assert ops[0].tid == 4 and ops[0].loc.offset == 0x10
    assert ops[2].amask == frozenset({4, 6})


def test_store_record_carries_values():
    # A lane the record names no value for writes None.
    record = LogRecord(
        kind=RecordKind.STORE,
        warp=0,
        active=frozenset({0, 1, 2}),
        addrs={tid: (Space.GLOBAL, 0x10 + 4 * tid) for tid in (0, 1, 2)},
        values={0: 42},
    )
    ops = record_to_ops(record, LAYOUT)
    assert [(type(op), op.tid, op.value) for op in ops[:-1]] == [
        (Write, 0, 42), (Write, 1, None), (Write, 2, None)]


def test_shared_addresses_resolve_to_the_thread_block():
    record = LogRecord(
        kind=RecordKind.STORE,
        warp=2,  # block 1
        active=frozenset({8}),
        addrs={8: (Space.SHARED, 0x4)},
        values={8: 1},
    )
    ops = record_to_ops(record, LAYOUT)
    assert ops[0].loc.space is Space.SHARED
    assert ops[0].loc.block == 1


def test_atomic_and_sync_records():
    for kind, expected in (
        (RecordKind.ATOMIC, Atomic),
        (RecordKind.ACQUIRE, Acquire),
        (RecordKind.RELEASE, Release),
        (RecordKind.ACQREL, AcqRel),
    ):
        record = LogRecord(
            kind=kind,
            warp=0,
            active=frozenset({0}),
            addrs={0: (Space.GLOBAL, 0)},
            scope=Scope.GLOBAL,
        )
        ops = record_to_ops(record, LAYOUT)
        assert isinstance(ops[0], expected)
        if expected is not Atomic:
            assert ops[0].scope is Scope.GLOBAL


def test_branch_records():
    branch = LogRecord(
        kind=RecordKind.BRANCH_IF,
        warp=0,
        active=frozenset({0, 1, 2, 3}),
        then_mask=frozenset({0, 1}),
    )
    [op] = record_to_ops(branch, LAYOUT)
    assert isinstance(op, If)
    assert op.then_mask == frozenset({0, 1})
    assert op.else_mask == frozenset({2, 3})
    [op] = record_to_ops(LogRecord(kind=RecordKind.BRANCH_ELSE, warp=0, active=frozenset()), LAYOUT)
    assert isinstance(op, Else)
    [op] = record_to_ops(LogRecord(kind=RecordKind.BRANCH_FI, warp=0, active=frozenset()), LAYOUT)
    assert isinstance(op, Fi)


def test_barrier_record_uses_block_id():
    record = LogRecord(kind=RecordKind.BARRIER, warp=1, active=frozenset(range(8, 16)))
    [op] = record_to_ops(record, LAYOUT)
    assert isinstance(op, Barrier)
    assert op.block == 1
    assert op.active == frozenset(range(8, 16))


def test_record_size_matches_paper():
    record = LogRecord(kind=RecordKind.LOAD, warp=0, active=frozenset())
    assert record.size_bytes() == 16 + 8 * 32 == 272


# ----------------------------------------------------------------------
# The one cell-expansion rule
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(addr=st.integers(min_value=-(1 << 21), max_value=1 << 21),
       width=st.integers(min_value=0, max_value=32),
       granularity=st.sampled_from([1, 2, 3, 4, 8, 16]))
def test_cell_offsets_cover_exactly_the_accessed_bytes(addr, width,
                                                       granularity):
    touched = range(addr, addr + max(width, 1))
    brute = sorted({byte - byte % granularity for byte in touched})
    assert list(cell_offsets(addr, width, granularity)) == brute


def test_locations_are_cell_offsets_in_the_threads_block():
    load = LogRecord(kind=RecordKind.LOAD, warp=2, active=frozenset({9}),
                     addrs={9: (Space.SHARED, 6)})
    assert [(op.loc.space, op.loc.offset, op.loc.block)
            for op in record_to_ops(load, LAYOUT)[:-1]] == [
        (Space.SHARED, 4, 1), (Space.SHARED, 8, 1)]
    load = LogRecord(kind=RecordKind.LOAD, warp=2, active=frozenset({9}),
                     addrs={9: (Space.GLOBAL, 8)})
    assert [(op.loc.space, op.loc.offset, op.loc.block)
            for op in record_to_ops(load, LAYOUT)[:-1]] == [
        (Space.GLOBAL, 8, -1)]


def test_no_cell_cache_between_an_access_and_its_shadow_cell():
    """The expansion is arithmetic and the shadow memory is the only
    map: no memo on the expansion, none on a detector instance."""
    assert not hasattr(cell_offsets, "cache_info")
    memoised = [name for name, value in vars(events_module).items()
                if hasattr(value, "cache_info")]
    assert memoised == ["_sorted_mask"]  # masks, not cells
    assert not any(hasattr(value, "cache_info")
                   for value in vars(detector_module).values())
    detector = BarracudaDetector(LAYOUT)
    load = LogRecord(kind=RecordKind.LOAD, warp=0, active=frozenset({0, 1}),
                     addrs={0: (Space.GLOBAL, 6), 1: (Space.SHARED, 6)})
    detector.process_columnar(ColumnarBatch.from_records([load]))
    assert detector.shadow.stats.entries == 4
    # The only table a detector keeps by itself is the per-warp
    # instruction counter; cells live in ``shadow`` and nowhere else.
    assert [name for name, value in vars(detector).items()
            if isinstance(value, dict)] == ["_instr"]
    for module in (events_module, detector_module):
        source = inspect.getsource(module)
        for name in ("_loc_cells", "_entry_cache", "_loc_granularity"):
            assert name not in source
