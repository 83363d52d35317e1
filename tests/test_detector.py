"""Unit tests for the production detector's rule-level behavior."""

import pytest

from repro.bench import ALL_WORKLOADS
from repro.columnar import (
    KIND_ACQREL, KIND_ACQUIRE, KIND_BARRIER, KIND_BRANCH_IF, ColumnarBatch)
from repro.core import BarracudaDetector, RaceKind
from repro.core.races import AccessType
from repro.errors import ReproError, TraceError
from repro.jobs import launch_spec
from repro.suite import ALL_PROGRAMS
from repro.trace import GridLayout, Scope, TraceBuilder, global_loc, shared_loc
from repro.trace.operations import (
    Acquire, Barrier, Else, EndInsn, Fi, If, Location, Read, Write)
from repro.trace.trace import Trace

LAYOUT = GridLayout(num_blocks=2, threads_per_block=8, warp_size=4)
X = global_loc(0)
FLAG = global_loc(8)


def run(fn, layout=LAYOUT):
    builder = TraceBuilder(layout)
    fn(builder)
    detector = BarracudaDetector(layout)
    return detector, detector.process_trace(builder.build())


class TestClassification:
    def test_intra_warp_race_is_divergence_kind(self):
        _d, reports = run(lambda b: b.write(0, X, value={t: t for t in range(4)}))
        assert reports.races
        assert all(r.kind is RaceKind.DIVERGENCE for r in reports.races)

    def test_intra_block_kind(self):
        _d, reports = run(lambda b: (b.write(0, X, value=1), b.write(1, X, value=2)))
        assert {r.kind for r in reports.races} == {RaceKind.INTRA_BLOCK}

    def test_inter_block_kind(self):
        _d, reports = run(lambda b: (b.write(0, X, value=1), b.write(2, X, value=2)))
        assert {r.kind for r in reports.races} == {RaceKind.INTER_BLOCK}

    def test_branch_ordering_flag(self):
        def scenario(b):
            b.branch_if(0, [0, 1])
            b.write(0, X, value=1)
            b.branch_else(0)
            b.read(0, X)
            b.branch_fi(0)

        _d, reports = run(scenario)
        assert reports.races
        assert all(r.branch_ordering for r in reports.races)
        assert all(r.kind is RaceKind.DIVERGENCE for r in reports.races)

    def test_access_types_recorded(self):
        _d, reports = run(lambda b: (b.write(0, X, value=1), b.read(2, X)))
        race = reports.races[0]
        assert race.prior_access is AccessType.WRITE
        assert race.current_access is AccessType.READ


class TestSameValueFilter:
    def test_same_instruction_same_value_filtered(self):
        _d, reports = run(lambda b: b.write(0, X, value=7))
        assert reports.races == []
        assert reports.filtered_same_value == 3

    def test_different_values_not_filtered(self):
        _d, reports = run(lambda b: b.write(0, X, value={0: 1, 1: 1, 2: 2, 3: 1}))
        assert reports.races

    def test_cross_warp_same_value_not_filtered(self):
        _d, reports = run(lambda b: (b.write(0, X, value=7), b.write(1, X, value=7)))
        assert reports.races

    def test_unknown_values_not_filtered(self):
        _d, reports = run(lambda b: b.write(0, X, value=None))
        assert reports.races


class TestReadMetadata:
    def test_concurrent_reads_then_ordered_write_is_clean(self):
        def scenario(b):
            b.read(0, X)
            b.read(1, X)  # concurrent with warp 0's read: inflate to map
            b.barrier(0)
            b.write(0, {t: global_loc(100 + 4 * t) for t in LAYOUT.warp_tids(0)})
            b.write(1, X, value=1)

        _d, reports = run(scenario)
        assert reports.races == []

    def test_write_races_with_every_unordered_reader(self):
        def scenario(b):
            b.read(0, X)
            b.read(1, X)
            b.write(2, X, value=1)  # block 1: unordered with both readers

        _d, reports = run(scenario)
        readers = {r.prior_tid for r in reports.races}
        # At least one reader from each of warps 0 and 1 is implicated.
        assert any(t in readers for t in (0, 1, 2, 3))
        assert any(t in readers for t in (4, 5, 6, 7))


class TestSynchronizationState:
    def test_sync_location_tracked_separately(self):
        def scenario(b):
            b.write(0, FLAG, value=1)  # data access first: shadow exists
            b.barrier(0)
            b.release(0, FLAG, Scope.GLOBAL)
            b.acquire(2, FLAG, Scope.GLOBAL)

        detector, reports = run(scenario)
        assert reports.races == []
        assert detector.sync.is_sync_location((-1, FLAG.offset))
        # The data access's shadow record is untouched by the sync ops.
        assert detector.shadow.peek(FLAG).last_value == 1

    def test_shadow_pages_allocated_on_demand(self):
        def scenario(b):
            b.write(0, global_loc(0), value=1)
            b.write(0, global_loc(5 << 20), value=1)

        detector, _reports = run(scenario)
        assert detector.shadow.stats.global_pages == 2

    def test_shared_locations_tracked_per_block(self):
        def scenario(b):
            b.write(0, shared_loc(0, 0), value=1)
            b.write(2, shared_loc(1, 0), value=2)  # different block: no race

        _d, reports = run(scenario)
        assert reports.races == []


class TestBarrierDivergence:
    def test_divergent_barrier_reported_with_missing_threads(self):
        def scenario(b):
            b.branch_if(0, [0])
            b.barrier(0)
            b.branch_else(0)
            b.branch_fi(0)

        _d, reports = run(scenario)
        assert len(reports.barrier_divergences) == 1
        assert reports.barrier_divergences[0].missing == frozenset({1, 2, 3})

    def test_full_barrier_not_reported(self):
        _d, reports = run(lambda b: b.barrier(0))
        assert reports.barrier_divergences == []


class TestInactiveThreads:
    def test_detector_ignores_ops_by_inactive_threads(self):
        builder = TraceBuilder(LAYOUT)
        builder.branch_if(0, [0, 1])
        trace = builder.build()
        detector = BarracudaDetector(LAYOUT)
        for op in trace.ops:
            detector.process(op)
        # A stray operation by an inactive thread is a NOP.
        detector.process(Read(tid=2, loc=X))
        detector.process(EndInsn(warp=0, amask=frozenset({0, 1})))
        assert detector.reports.races == []
        assert detector.shadow.peek(X) is None


class TestNoRowForm:
    """A trace with no row form is one ``TraceError`` that names the
    operation, before any row runs."""

    RD0, RD1 = Read(0, X), Read(1, X)
    ENDI = EndInsn(warp=0, amask=frozenset({0, 1, 2, 3}))

    @pytest.mark.parametrize("ops, named", [
        ([RD0, RD1], "rd(t0, global[0x0])"),
        ([RD0, Else(warp=0), ENDI], "else(w0)"),
        ([Read(0, global_loc(2)), ENDI], "rd(t0, global[0x2])"),
        ([RD0, Write(1, X, 1), ENDI], "wr(t1, global[0x0])"),
        ([RD0, Read(1, X, pc=7), ENDI], "rd(t1, global[0x0]) (pc 7)"),
        ([Acquire(0, X, Scope.BLOCK), Acquire(1, X, Scope.GLOBAL), ENDI],
         "acqGlb(t1, global[0x0])"),
        ([RD1, RD0, ENDI], "rd(t0, global[0x0])"),
        ([Read(4, X), ENDI], "rd(t4, global[0x0])"),
        ([Read(0, shared_loc(1, 0)), ENDI], "rd(t0, shared[b1][0x0])"),
        ([If(warp=0, then_mask=frozenset({0, 1}),
             else_mask=frozenset({1, 2, 3}))], "if(w0)"),
    ], ids=["no-trailing-endi", "control-op-inside", "unaligned-cell",
            "mixed-op-types", "mixed-pcs", "mixed-scopes",
            "out-of-tid-order", "lane-of-another-warp",
            "shared-cell-of-another-block", "overlapping-if-masks"])
    def test_is_one_trace_error_naming_the_op(self, ops, named):
        detector = BarracudaDetector(LAYOUT)
        with pytest.raises(TraceError, match="no row form") as caught:
            detector.process_trace(Trace(LAYOUT, ops))
        message = str(caught.value)
        assert "\n" not in message and message.startswith(named)
        assert detector.ops_processed == 0


@pytest.mark.parametrize("op", [
    EndInsn(warp=99, amask=frozenset()),
    Barrier(block=2, active=frozenset()),
    Else(warp=-2),
    EndInsn(warp=0, amask=frozenset({0, 4})),
], ids=["warp", "block", "negative-warp", "mask-of-another-warp"])
def test_a_trace_outside_its_layout_is_one_repro_error(op):
    with pytest.raises(ReproError, match="is not one of the launch's|"
                       "is outside its warp") as caught:
        BarracudaDetector(LAYOUT).process_trace(Trace(LAYOUT, [op]))
    assert "\n" not in str(caught.value)


def test_process_runs_a_row_when_its_endi_or_control_op_arrives():
    builder = TraceBuilder(LAYOUT)
    builder.write(0, X, value={t: t for t in range(4)})
    builder.barrier(0)
    ops = builder.build().ops
    detector = BarracudaDetector(LAYOUT)
    for op in ops[:4]:
        detector.process(op)
    assert detector.ops_processed == 0  # held until the endi
    detector.process(ops[4])
    assert detector.ops_processed == 5 and detector.reports.races
    detector.process(ops[5])
    assert detector.ops_processed == 6
    assert detector.reports == BarracudaDetector(LAYOUT).process_trace(
        builder.build())


@pytest.mark.parametrize("name", ["device_reduce", "threadfence_reduction"])
def test_the_fused_loop_reads_rows_as_they_are(monkeypatch, name):
    """Branch, barrier and acquire/release rows reach the clocks as lane
    bits and ``(block, offset)`` cells: the loop builds no ``If``,
    ``Else``, ``Fi`` or mask frozenset, and a ``Location`` only for a
    race report."""
    (entry,) = [e for e in list(ALL_PROGRAMS) + list(ALL_WORKLOADS)
                if e.name == name]
    batches = launch_spec(entry.spec, capture=True).launch.captured
    kinds = {code for batch in batches for code in batch.kinds}
    assert {KIND_BARRIER, KIND_BRANCH_IF} <= kinds
    assert kinds & set(range(KIND_ACQUIRE, KIND_ACQREL + 1))  # sync rows

    def refuse(*args, **kwargs):
        raise AssertionError("built per row")

    monkeypatch.setattr(ColumnarBatch, "mask_set", refuse)
    for op in (If, Else, Fi):
        monkeypatch.setattr(op, "__init__", refuse)
    built = []
    location_init = Location.__init__

    def count(self, *args):
        built.append(args)
        location_init(self, *args)

    monkeypatch.setattr(Location, "__init__", count)
    detector = BarracudaDetector(entry.spec.layout())
    for batch in batches:
        detector.process_columnar(batch)
    assert detector.ops_processed > 0
    assert len(built) == len(detector.reports.races)
