"""The production BARRACUDA detector (§3.3 semantics, §4.3 engineering).

This detector implements the same operational semantics as
:class:`repro.core.reference.ReferenceDetector` but with the scalable data
structures of §4.3: compressed per-thread vector clocks managed at warp
granularity (:mod:`repro.core.ptvc`), shadow memory with a page table
(:mod:`repro.core.shadow`), and dedicated synchronization-location
metadata (:mod:`repro.core.syncmap`).

Race verdicts are identical to the reference detector; the property tests
cross-check them on randomized feasible traces.  The host-side runtime
(:mod:`repro.runtime.host`) feeds this class from the GPU event queues.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..columnar import (
    KIND_ATOMIC,
    KIND_LOAD,
    KIND_STORE,
    SPACE_CODE,
    ColumnarBatch,
)
from ..events import cell_offsets, record_to_ops
from ..trace.layout import GridLayout
from ..trace.operations import (
    AcqRel,
    Acquire,
    AnyOp,
    Atomic,
    Barrier,
    Else,
    EndInsn,
    Fi,
    If,
    Location,
    Read,
    Release,
    Scope,
    Space,
    Write,
)
from ..obs.provenance import ClockComparison, ProvenanceTracker
from ..trace.trace import Trace
from .ptvc import PTVCManager, PTVCStats
from .races import (
    AccessType,
    BarrierDivergenceReport,
    DetectorConfig,
    DetectorReports,
    classify,
)
from .shadow import ShadowEntry, ShadowMemory
from .syncmap import SyncLocationMap
from .vectorclock import Epoch

#: Operations performed by a single thread (NOP when inactive).
_THREAD_LEVEL_OPS = (Read, Write, Atomic, Acquire, Release, AcqRel)

#: A shadow cell as the access rules carry it: ``(block, offset)`` with
#: ``block < 0`` for global memory — :meth:`ShadowMemory.entry_at`'s
#: address.  A :class:`Location` is built only for a race report.
Cell = Tuple[int, int]
_SHARED = SPACE_CODE[Space.SHARED]


class BarracudaDetector:
    """BARRACUDA's race detection algorithm with compressed metadata."""

    def __init__(
        self, layout: GridLayout, config: Optional[DetectorConfig] = None
    ) -> None:
        self.layout = layout
        self.config = config or DetectorConfig()
        self.reports = DetectorReports()
        self.clocks = PTVCManager(layout)
        self.shadow = ShadowMemory(layout)
        self.sync = SyncLocationMap(layout)
        self._instr: Dict[int, int] = {}
        #: Dynamic operations processed (the detector-side work measure).
        self.ops_processed = 0
        #: Access-history tracker for race provenance; None (the default)
        #: keeps the hot path free of history bookkeeping.
        self.provenance: Optional[ProvenanceTracker] = (
            ProvenanceTracker(self.config.provenance_depth)
            if self.config.provenance_depth > 0
            else None
        )
        self._dispatch = None  # built lazily: handlers reference methods

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _group_of(self, tid: int) -> Tuple[int, int]:
        warp = self.layout.warp_of(tid)
        return (warp, self._instr.get(warp, 0))

    def _advance_group(self, warp: int) -> None:
        self._instr[warp] = self._instr.get(warp, 0) + 1

    def _report_race(
        self,
        cell: Cell,
        tid: int,
        access: AccessType,
        prior_tid: int,
        prior_access: AccessType,
        pc: int,
        prior_pc: int,
        prior_clock: int = -1,
    ) -> None:
        block, offset = cell
        loc = (Location(Space.GLOBAL, offset) if block < 0
               else Location(Space.SHARED, offset, block))
        amask = self.clocks.active_mask(self.layout.warp_of(tid))
        provenance = None
        if self.provenance is not None:
            comparison = ClockComparison(
                current_tid=tid,
                prior_tid=prior_tid,
                prior_clock=prior_clock,
                observed=self.clocks.value(tid, prior_tid),
            )
            provenance = self.provenance.build(
                cell, str(loc), tid, prior_tid, comparison
            )
        self.reports.races.append(
            classify(
                self.layout,
                loc,
                tid,
                access,
                prior_tid,
                prior_access,
                current_amask=amask,
                current_pc=pc,
                prior_pc=prior_pc,
                provenance=provenance,
            )
        )

    def _record_provenance(
        self, cell: Cell, tid: int, access: AccessType, pc: int,
        value: Optional[int] = None,
    ) -> None:
        """Log one access into the provenance rings (enabled path only)."""
        self.provenance.record(
            cell, tid, access.value, pc, self.clocks.value(tid, tid), value
        )

    def _check_write(
        self,
        entry: ShadowEntry,
        cell: Cell,
        tid: int,
        access: AccessType,
        pc: int,
        cv,
        value: Optional[int] = None,
    ) -> None:
        """``W_x ⪯ C_t`` with the same-value intra-warp filter (§3.3.1).

        ``cv`` is the clock-query provider: :attr:`clocks`, or the
        per-record :class:`~repro.core.ptvc.ConvergedWarpView` the fused
        columnar loop supplies (same answers, fewer lookups).
        """
        prior_epoch = entry.write_epoch
        # FastTrack shortcuts: a bottom epoch is covered by anything, and
        # a thread always covers its own prior epochs (its self clock is
        # monotone), so only cross-thread epochs need a clock lookup.
        if (
            prior_epoch.clock == 0
            or prior_epoch.tid == tid
            or cv.covers(tid, prior_epoch)
        ):
            return
        if (
            self.config.filter_same_value
            and access is AccessType.WRITE
            and value is not None
            and entry.last_value == value
            and entry.last_group == self._group_of(tid)
        ):
            self.reports.filtered_same_value += 1
            return
        prior = AccessType.ATOMIC if entry.atomic else AccessType.WRITE
        self._report_race(
            cell, tid, access, entry.write_epoch.tid, prior, pc, entry.write_pc,
            prior_clock=entry.write_epoch.clock,
        )

    def _check_reads(
        self, entry: ShadowEntry, cell: Cell, tid: int, access: AccessType,
        pc: int, cv,
    ) -> None:
        """``R_x ⪯ C_t`` (epoch form) or ``R_x ⊑ C_t`` (map form)."""
        if entry.readers is not None:
            for reader, stamp in entry.readers.items():
                if stamp > cv.value(tid, reader):
                    self._report_race(
                        cell,
                        tid,
                        access,
                        reader,
                        AccessType.READ,
                        pc,
                        entry.read_pcs.get(reader, -1),
                        prior_clock=stamp,
                    )
        else:
            read_epoch = entry.read_epoch
            if (
                read_epoch is not None
                and read_epoch.clock != 0
                and read_epoch.tid != tid
                and not cv.covers(tid, read_epoch)
            ):
                self._report_race(
                    cell,
                    tid,
                    access,
                    read_epoch.tid,
                    AccessType.READ,
                    pc,
                    entry.read_pcs.get(read_epoch.tid, -1),
                    prior_clock=read_epoch.clock,
                )

    # ------------------------------------------------------------------
    # Memory access rules (Figure 2).  The per-lane bodies are the single
    # source of truth: both the per-operation handlers and the fused
    # columnar loop call them, so the two pipelines cannot drift.
    # ------------------------------------------------------------------
    def _read_lane(self, tid: int, cell: Cell, pc: int,
                   entry: ShadowEntry, cv) -> None:
        if self.provenance is not None:
            self._record_provenance(cell, tid, AccessType.READ, pc)
        self._check_write(entry, cell, tid, AccessType.READ, pc, cv)
        readers = entry.readers
        if readers is not None:
            # READSHARED
            readers.set(tid, cv.value(tid, tid))
        else:
            read_epoch = entry.read_epoch
            if read_epoch is not None and (
                read_epoch.clock == 0
                or read_epoch.tid == tid  # own epoch: covered by monotonicity
                or cv.covers(tid, read_epoch)
            ):
                # READEXCL
                entry.read_epoch = cv.epoch(tid)
            else:
                # READINFLATE: first concurrent read.
                entry.inflate_reads(
                    read_epoch if read_epoch is not None else Epoch.bottom()
                )
                entry.readers.set(tid, cv.value(tid, tid))
        entry.read_pcs[tid] = pc

    def _write_lane(
        self, tid: int, cell: Cell, value: Optional[int], pc: int,
        entry: ShadowEntry, cv, group: Tuple[int, int],
    ) -> None:
        if self.provenance is not None:
            self._record_provenance(cell, tid, AccessType.WRITE, pc, value)
        self._check_write(entry, cell, tid, AccessType.WRITE, pc, cv, value)
        self._check_reads(entry, cell, tid, AccessType.WRITE, pc, cv)
        entry.reset_reads()
        entry.write_epoch = cv.epoch(tid)
        entry.atomic = False
        entry.last_value = value
        entry.last_group = group
        entry.write_pc = pc

    def _atomic_lane(self, tid: int, cell: Cell, pc: int,
                     entry: ShadowEntry, cv, group: Tuple[int, int]) -> None:
        if self.provenance is not None:
            self._record_provenance(cell, tid, AccessType.ATOMIC, pc)
        if not entry.atomic:
            # INITATOM*: the preceding write was non-atomic; Nvidia gives
            # no atomicity guarantee against it, so order is required.
            self._check_write(entry, cell, tid, AccessType.ATOMIC, pc, cv)
        # Atomics never race with each other but do race with reads.
        self._check_reads(entry, cell, tid, AccessType.ATOMIC, pc, cv)
        entry.reset_reads()
        entry.write_epoch = cv.epoch(tid)
        entry.atomic = True
        entry.last_value = None
        entry.last_group = group
        entry.write_pc = pc

    def _on_read(self, op: Read) -> None:
        loc = op.loc
        self._read_lane(op.tid, (loc.block, loc.offset), op.pc,
                        self.shadow.entry(loc), self.clocks)

    def _on_write(self, op: Write) -> None:
        loc = op.loc
        self._write_lane(op.tid, (loc.block, loc.offset), op.value, op.pc,
                         self.shadow.entry(loc), self.clocks,
                         self._group_of(op.tid))

    def _on_atomic(self, op: Atomic) -> None:
        loc = op.loc
        self._atomic_lane(op.tid, (loc.block, loc.offset), op.pc,
                          self.shadow.entry(loc), self.clocks,
                          self._group_of(op.tid))

    # ------------------------------------------------------------------
    # Lockstep and branches
    # ------------------------------------------------------------------
    def _on_endi(self, op: EndInsn) -> None:
        self.clocks.end_instruction(op.warp)
        self._advance_group(op.warp)

    def _on_if(self, op: If) -> None:
        self.clocks.branch_if(op)
        self._advance_group(op.warp)

    def _on_else(self, op: Else) -> None:
        self.clocks.branch_else(op)
        self._advance_group(op.warp)

    def _on_fi(self, op: Fi) -> None:
        self.clocks.branch_fi(op)
        self._advance_group(op.warp)

    # ------------------------------------------------------------------
    # Barriers and synchronization (Figure 3)
    # ------------------------------------------------------------------
    def _on_barrier(self, op: Barrier) -> None:
        expected = frozenset(self.layout.barrier_tids(op.block))
        if op.active != expected:
            self.reports.barrier_divergences.append(
                BarrierDivergenceReport(
                    block=op.block, missing=expected - op.active, pc=op.pc
                )
            )
        self.clocks.barrier(op.block, op.active)
        for warp in self.layout.barrier_warps(op.block):
            self._advance_group(warp)

    def _on_acquire(self, op: Acquire) -> None:
        sync = self.sync.get(op.loc)
        self._mark_sync_loc(op.loc)
        if op.scope is Scope.BLOCK:
            sources = sync.acquire_block(self.layout.block_of(op.tid))
        else:
            sources = sync.acquire_global()
        for clock in sources:
            self.clocks.acquire_into(op.tid, clock)

    def _on_release(self, op: Release) -> None:
        sync = self.sync.get(op.loc)
        self._mark_sync_loc(op.loc)
        released = self.clocks.materialize(op.tid)
        if op.scope is Scope.BLOCK:
            sync.release_block(self.layout.block_of(op.tid), released)
        else:
            sync.release_global(released)
        self.clocks.increment(op.tid)

    def _on_acqrel(self, op: AcqRel) -> None:
        sync = self.sync.get(op.loc)
        self._mark_sync_loc(op.loc)
        if op.scope is Scope.BLOCK:
            for clock in sync.acquire_block(self.layout.block_of(op.tid)):
                self.clocks.acquire_into(op.tid, clock)
            combined = self.clocks.materialize(op.tid)
            sync.release_block(self.layout.block_of(op.tid), combined)
        else:
            for clock in sync.acquire_global():
                self.clocks.acquire_into(op.tid, clock)
            combined = self.clocks.materialize(op.tid)
            sync.release_global(combined)
        self.clocks.increment(op.tid)

    def _mark_sync_loc(self, loc: Location) -> None:
        entry = self.shadow.peek(loc)
        if entry is not None:
            entry.sync_loc = True

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _handlers(self):
        """Bound per-type dispatch table (built once: this is the hottest
        per-event path)."""
        return {
            Read: self._on_read,
            Write: self._on_write,
            Atomic: self._on_atomic,
            EndInsn: self._on_endi,
            If: self._on_if,
            Else: self._on_else,
            Fi: self._on_fi,
            Barrier: self._on_barrier,
            Acquire: self._on_acquire,
            Release: self._on_release,
            AcqRel: self._on_acqrel,
        }

    def process(self, op: AnyOp) -> None:
        """Apply one trace operation; inactive threads' operations are NOPs."""
        self.ops_processed += 1
        if isinstance(op, _THREAD_LEVEL_OPS):
            if not self.clocks.is_active(op.tid):
                return
        if self._dispatch is None:
            self._dispatch = self._handlers()
        self._dispatch[type(op)](op)

    def process_columnar(self, batch: ColumnarBatch,
                         granularity: int = 4) -> None:
        """Consume one columnar warp-batch through the fused inner loop.

        Semantically identical to expanding every record with
        :func:`repro.events.record_to_ops` and calling :meth:`process`
        per operation — same races in the same order, same
        ``ops_processed``/``joins`` accounting (the differential suite
        pins this across all 66 programs) — but without materializing a
        single operation object.  Rows the fast path cannot prove
        regular (non-memory kinds, extras rows, lanes outside the row's
        warp) fall back to exactly that expansion.
        """
        layout = self.layout
        clocks = self.clocks
        entry_at = self.shadow.entry_at
        deviant = clocks._deviant
        converged_view = clocks.converged_view
        kinds = batch.kinds
        warps = batch.warps
        pcs = batch.pcs
        widths = batch.widths
        lane_starts = batch.lane_starts
        lane_tids = batch.lane_tids
        lane_spaces = batch.lane_spaces
        lane_addrs = batch.lane_addrs
        lane_has_value = batch.lane_has_value
        lane_values = batch.lane_values
        read_lane = self._read_lane
        write_lane = self._write_lane
        atomic_lane = self._atomic_lane
        active_mask = clocks.active_mask
        end_instruction = clocks.end_instruction
        instr = self._instr
        instr_get = instr.get
        process = self.process
        tpb = layout.threads_per_block
        ws = layout.warp_size
        wpb = layout.warps_per_block
        total_warps = layout.total_warps
        for index in range(len(kinds)):
            code = kinds[index]
            start = lane_starts[index]
            end = lane_starts[index + 1]
            regular = code <= KIND_ATOMIC and 0 <= (warp := warps[index]) < total_warps
            if regular:
                # All lanes must live in the row's own warp: activeness
                # and the lockstep join are per-warp state, and malformed
                # captures may scatter tids (the per-op path handles
                # those lane by lane).
                base = (warp // wpb) * tpb
                lo = base + (warp % wpb) * ws
                hi = min(lo + ws, base + tpb)
                for lane in range(start, end):
                    tid = lane_tids[lane]
                    if tid < lo or tid >= hi:
                        regular = False
                        break
            if not regular:
                for op in record_to_ops(batch.record(index), layout,
                                        granularity):
                    process(op)
                continue
            pc = pcs[index]
            width = widths[index]
            # Shared cells belong to the row's block: every lane is in
            # the row's warp (checked above).
            shared_block = warp // wpb
            amask = active_mask(warp)
            # One clock view for the whole record: memory accesses never
            # deviate a thread or replace the group base, so the view's
            # frozen warp/block max stays exact until the trailing endi.
            cv = clocks if deviant else converged_view(warp, lo, hi)
            # The warp-instruction identity every lane of this record
            # shares (what _group_of would derive lane by lane).
            group = (warp, instr_get(warp, 0))
            ops = 1
            for lane in range(start, end):
                tid = lane_tids[lane]
                offsets = cell_offsets(lane_addrs[lane], width, granularity)
                ops += len(offsets)
                if tid not in amask:
                    continue
                block = shared_block if lane_spaces[lane] == _SHARED else -1
                if code == KIND_STORE:
                    value = lane_values[lane] if lane_has_value[lane] else None
                for offset in offsets:
                    cell = (block, offset)
                    entry = entry_at(block, offset)
                    if code == KIND_LOAD:
                        read_lane(tid, cell, pc, entry, cv)
                    elif code == KIND_STORE:
                        write_lane(tid, cell, value, pc, entry, cv, group)
                    else:
                        atomic_lane(tid, cell, pc, entry, cv, group)
            self.ops_processed += ops
            end_instruction(warp)
            instr[warp] = instr_get(warp, 0) + 1

    def process_trace(self, trace: Trace) -> DetectorReports:
        """Run a full trace and return the accumulated reports."""
        for op in trace.ops:
            self.process(op)
        return self.reports

    def ptvc_stats(self) -> PTVCStats:
        """Current PTVC compression statistics (experiment E6)."""
        return self.clocks.stats()
