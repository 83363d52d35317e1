"""The production BARRACUDA detector (§3.3 semantics, §4.3 engineering).

This detector implements the same operational semantics as
:class:`repro.core.reference.ReferenceDetector` but with the scalable data
structures of §4.3: compressed per-thread vector clocks managed at warp
granularity (:mod:`repro.core.ptvc`), shadow memory with a page table
(:mod:`repro.core.shadow`), and dedicated synchronization-location
metadata (:mod:`repro.core.syncmap`).

Its one algorithm is the fused loop over rows, :meth:`BarracudaDetector.
process_columnar`: the host (:mod:`repro.runtime.host`) feeds it the
engine's rows, and a §3.1 trace is packed into rows first
(:func:`repro.columnar.ops_to_rows`).  The Theorem 1 property tests hold
it to the reference detector and the sync-order oracles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..columnar import (
    KIND_ACQUIRE,
    KIND_ATOMIC,
    KIND_BARRIER,
    KIND_BRANCH_ELSE,
    KIND_BRANCH_IF,
    KIND_LOAD,
    KIND_STORE,
    SCOPE_CODE,
    SPACE_CODE,
    ColumnarBatch,
    ops_to_rows,
)
from ..events import cell_offsets
from ..trace.layout import GridLayout, mask_lanes
from ..trace.operations import THREAD_OPS, AnyOp, Location, Scope, Space
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
from .shadow import RangeCell, ShadowEntry, ShadowMemory
from .syncmap import Cell, SyncLocationMap
from .vectorclock import Epoch

_SHARED = SPACE_CODE[Space.SHARED]
_BLOCK_SCOPE = SCOPE_CODE[Scope.BLOCK]
# Enum members as module constants: ``AccessType.READ`` is a metaclass
# lookup, and the lane bodies below name one per access.
_READ, _WRITE, _ATOMIC = AccessType.READ, AccessType.WRITE, AccessType.ATOMIC


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
        #: Thread operations :meth:`process` holds until their ``endi``.
        self._pending: List[AnyOp] = []
        #: Dynamic operations processed (the detector-side work measure).
        self.ops_processed = 0
        #: Access-history tracker for race provenance; None (the default)
        #: keeps the hot path free of history bookkeeping.
        self.provenance: Optional[ProvenanceTracker] = (
            ProvenanceTracker(self.config.provenance_depth)
            if self.config.provenance_depth > 0
            else None
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _group_of(self, tid: int) -> Tuple[int, int]:
        warp = self.layout.warp_of(tid)
        return (warp, self._instr.get(warp, 0))

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
        amask = self.clocks.active_tids(self.layout.warp_of(tid))
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
    # Memory access rules (Figure 2).  The per-lane bodies the fused loop
    # calls for a lane, and the range path for a piece it cannot cover.
    # ------------------------------------------------------------------
    def _read_lane(self, tid: int, cell: Cell, pc: int,
                   entry: ShadowEntry, cv) -> None:
        if self.provenance is not None:
            self._record_provenance(cell, tid, _READ, pc)
        self._check_write(entry, cell, tid, _READ, pc, cv)
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
            self._record_provenance(cell, tid, _WRITE, pc, value)
        self._check_write(entry, cell, tid, _WRITE, pc, cv, value)
        self._check_reads(entry, cell, tid, _WRITE, pc, cv)
        entry.reset_reads()
        entry.write_epoch = cv.epoch(tid)
        entry.atomic = False
        entry.last_value = value
        entry.last_group = group
        entry.write_pc = pc

    def _atomic_lane(self, tid: int, cell: Cell, pc: int,
                     entry: ShadowEntry, cv, group: Tuple[int, int]) -> None:
        if self.provenance is not None:
            self._record_provenance(cell, tid, _ATOMIC, pc)
        if not entry.atomic:
            # INITATOM*: the preceding write was non-atomic; Nvidia gives
            # no atomicity guarantee against it, so order is required.
            self._check_write(entry, cell, tid, _ATOMIC, pc, cv)
        # Atomics never race with each other but do race with reads.
        self._check_reads(entry, cell, tid, _ATOMIC, pc, cv)
        entry.reset_reads()
        entry.write_epoch = cv.epoch(tid)
        entry.atomic = True
        entry.last_value = None
        entry.last_group = group
        entry.write_pc = pc

    # ------------------------------------------------------------------
    # Barriers and synchronization (Figure 3)
    # ------------------------------------------------------------------
    def _barrier(self, block: int, bits_by_warp: Dict[int, int],
                 pc: int) -> None:
        layout = self.layout
        if not self.clocks.barrier(block, bits_by_warp):
            missing = []
            for warp in layout.barrier_warps(block):
                first, count = layout.warp_span(warp)
                absent = ((1 << count) - 1) & ~bits_by_warp.get(warp, 0)
                missing += [first + lane for lane in mask_lanes(absent)]
            self.reports.barrier_divergences.append(
                BarrierDivergenceReport(
                    block=block, missing=frozenset(missing), pc=pc
                )
            )
        instr = self._instr
        for warp in layout.barrier_warps(block):
            instr[warp] = instr.get(warp, 0) + 1

    # The synchronization lane rules take the lane's cell and the block
    # a block-scoped operation names (-1: global scope).
    def _acquire(self, tid: int, cell: Cell, scope_block: int) -> None:
        sync = self.sync.get(cell)
        if scope_block >= 0:
            sources = sync.acquire_block(scope_block)
        else:
            sources = sync.acquire_global()
        for clock in sources:
            self.clocks.acquire_into(tid, clock)

    def _release(self, tid: int, cell: Cell, scope_block: int) -> None:
        sync = self.sync.get(cell)
        released = self.clocks.materialize(tid)
        if scope_block >= 0:
            sync.release_block(scope_block, released)
        else:
            sync.release_global(released)
        self.clocks.increment(tid)

    def _acqrel(self, tid: int, cell: Cell, scope_block: int) -> None:
        sync = self.sync.get(cell)
        if scope_block >= 0:
            for clock in sync.acquire_block(scope_block):
                self.clocks.acquire_into(tid, clock)
            combined = self.clocks.materialize(tid)
            sync.release_block(scope_block, combined)
        else:
            for clock in sync.acquire_global():
                self.clocks.acquire_into(tid, clock)
            combined = self.clocks.materialize(tid)
            sync.release_global(combined)
        self.clocks.increment(tid)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def process(self, op: AnyOp) -> None:
        """Apply one trace operation: the perf ledger's per-op stage,
        which hands over whole records.  Thread operations wait for the
        ``endi`` or control operation closing their row, which then runs
        through :meth:`process_columnar`."""
        self._pending.append(op)
        if type(op) not in THREAD_OPS:
            row, self._pending = self._pending, []
            self.process_trace(Trace(self.layout, row))

    def process_columnar(self, batch: ColumnarBatch, granularity: int = 4,
                         start: int = 0, stop: Optional[int] = None) -> None:
        """Consume rows ``start`` to ``stop`` (default: to the end) of one
        columnar warp-batch through the fused inner loop.

        The detector's one algorithm.  Its per-operation specification
        is :class:`~repro.core.reference.ReferenceDetector` over the
        rows' :func:`~repro.columnar.rows_to_ops` expansion, which the
        Theorem 1 properties hold it to on random feasible traces and
        all 110 corpus programs' row logs.  A coalesced LOAD/STORE row
        of a converged warp is one range access (:meth:`_coalesced_row`).

        Precondition: every row is one the engine can emit for this
        layout — ``batch`` passes :meth:`ColumnarBatch.validate` (a
        memory row's lanes are its mask, ascending) and
        :meth:`ColumnarBatch.check_layout` (its warps and blocks are the
        launch's, a row's lanes lie in its warp), which every loader of
        outside input runs — or one :func:`~repro.columnar.ops_to_rows`
        packed in this process: one aligned cell per lane, in ascending
        tid order, a tid repeated for an access spanning cells.
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
        scopes = batch.scopes
        mask_ids = batch.mask_ids
        lane_starts = batch.lane_starts
        lane_tids = batch.lane_tids
        lane_spaces = batch.lane_spaces
        lane_addrs = batch.lane_addrs
        lane_has_value = batch.lane_has_value
        lane_values = batch.lane_values
        read_lane = self._read_lane
        write_lane = self._write_lane
        atomic_lane = self._atomic_lane
        coalesced_row = self._coalesced_row
        sync_lane = (self._acquire, self._release, self._acqrel)
        active_mask = clocks.active_mask
        end_instruction = clocks.end_instruction
        instr = self._instr
        instr_get = instr.get
        # Per-lane history is what provenance records: no ranges then.
        ranges = self.provenance is None
        warp_span = layout.warp_span
        wpb = layout.warps_per_block
        mask_bits = batch.mask_bits

        for index in range(start, len(kinds) if stop is None else stop):
            code = kinds[index]
            warp = warps[index]
            pc = pcs[index]
            if KIND_BRANCH_IF <= code <= KIND_BARRIER:
                self.ops_processed += 1
                if code == KIND_BARRIER:
                    self._barrier(warp, mask_bits(mask_ids[index], layout), pc)
                    continue
                if code == KIND_BRANCH_IF:
                    then_id = batch.then_mask_ids[index]
                    clocks.branch_if(
                        warp,
                        mask_bits(then_id, layout).get(warp, 0)
                        if then_id >= 0 else 0,
                        mask_bits(mask_ids[index], layout).get(warp, 0))
                elif code == KIND_BRANCH_ELSE:
                    clocks.branch_else(warp)
                else:
                    clocks.branch_fi(warp)
                instr[warp] = instr_get(warp, 0) + 1
                continue
            first = lane_starts[index]
            end = lane_starts[index + 1]
            # The row's warp is tids [lo, hi), and its lanes lie there.
            lo, count = warp_span(warp)
            hi = lo + count
            width = widths[index]
            # Shared cells belong to the row's block, as its lanes do.
            shared_block = warp // wpb
            mask = active_mask(warp)
            # A full mask skips the per-lane active test.
            full = mask == (1 << count) - 1
            lanes = end - first
            if code > KIND_ATOMIC:
                # Every lane's thread is of the row's block.
                scope_block = (shared_block if scopes[index] == _BLOCK_SCOPE
                               else -1)
                apply = sync_lane[code - KIND_ACQUIRE]
                ops = 1
                for lane in range(first, end):
                    tid = lane_tids[lane]
                    offsets = cell_offsets(lane_addrs[lane], width, granularity)
                    ops += len(offsets)
                    if not full and not mask >> (tid - lo) & 1:
                        continue
                    block = shared_block if lane_spaces[lane] == _SHARED else -1
                    for offset in offsets:
                        apply(tid, (block, offset), scope_block)
            else:
                # One clock view for the whole record: memory accesses
                # never deviate a thread or replace the group base, so the
                # view's frozen warp/block max stays exact until the
                # trailing endi.
                cv = clocks if deviant else converged_view(warp, lo, hi)
                # The warp-instruction identity every lane of this record
                # shares (what _group_of would derive lane by lane).
                group = (warp, instr_get(warp, 0))
                # A coalesced row — lane i of the whole active warp on the
                # one cell at a0 + i*width, every lane at one clock — is
                # one range access.  The end lanes reject everything else
                # before a slice is taken.
                if (
                    lanes > 1
                    and code != KIND_ATOMIC
                    and width == granularity
                    and ranges
                    and not deviant
                    and lane_tids[end - 1] - lane_tids[first] == lanes - 1
                    and lane_addrs[end - 1] - (a0 := lane_addrs[first])
                    == (lanes - 1) * width
                    and a0 % width == 0
                    and full
                    and lane_addrs[first:end]
                    == list(range(a0, a0 + lanes * width, width))
                    and lane_spaces[first:end].count(lane_spaces[first]) == lanes
                    and (code == KIND_LOAD
                         or 0 not in lane_has_value[first:end])
                    and (clock := cv.uniform_clock())
                    and coalesced_row(
                        code == KIND_LOAD,
                        shared_block if lane_spaces[first] == _SHARED else -1,
                        a0, lanes, width, lane_tids[first], pc, cv, clock,
                        None if code == KIND_LOAD else lane_values[first:end],
                        group)
                ):
                    ops = 1 + lanes
                else:
                    ops = 1
                    for lane in range(first, end):
                        tid = lane_tids[lane]
                        offsets = cell_offsets(
                            lane_addrs[lane], width, granularity)
                        ops += len(offsets)
                        if not full and not mask >> (tid - lo) & 1:
                            continue
                        block = (shared_block
                                 if lane_spaces[lane] == _SHARED else -1)
                        if code == KIND_STORE:
                            value = (lane_values[lane]
                                     if lane_has_value[lane] else None)
                        for offset in offsets:
                            cell = (block, offset)
                            entry = entry_at(block, offset)
                            if code == KIND_LOAD:
                                read_lane(tid, cell, pc, entry, cv)
                            elif code == KIND_STORE:
                                write_lane(tid, cell, value, pc, entry, cv,
                                           group)
                            else:
                                atomic_lane(tid, cell, pc, entry, cv, group)
            self.ops_processed += ops
            end_instruction(warp)
            instr[warp] = instr_get(warp, 0) + 1

    def _coalesced_row(
        self, load: bool, block: int, start: int, lanes: int, step: int,
        tid0: int, pc: int, cv, clock: int, values, group: Tuple[int, int],
    ) -> bool:
        """One LOAD/STORE row whose lane ``i`` is thread ``tid0 + i`` on
        the cell at ``start + i*step``, every thread at ``clock``.

        The cells the row overlaps come back from the shadow memory as
        pieces.  A range piece's writer (and reader) threads share one
        warp and one clock, and so do this row's, so ``W_x ⪯ C_t`` and
        ``R_x ⪯ C_t`` have one answer for all its words: a covered piece
        is updated as a range — no lane rule would have reported
        anything — and any other piece becomes per-word records handed,
        in lane order, to the per-lane rules.  False when the shadow
        memory cannot tile the row (the caller goes lane by lane).
        """
        shadow = self.shadow
        pieces = shadow.tile(block, start, start + lanes * step, step)
        if pieces is None:
            return False
        first = start // step
        delta = tid0 - first
        covers = cv.covers_warp
        # STORE: stretches of adjacent covered pieces, each to become one
        # cell; a piece that goes lane by lane ends a stretch.
        runs: List[List[RangeCell]] = [[]]
        for piece in pieces:
            if type(piece) is RangeCell:
                index = piece.start // step
                written, read = piece.write_clock, piece.read_clock
                if (
                    (not written or piece.write_delta == delta
                     or covers(written, index + piece.write_delta))
                    and (not read or piece.read_delta == delta
                         or covers(read, index + piece.read_delta))
                ):
                    if load:
                        piece.read_clock = clock
                        piece.read_delta = delta
                        piece.read_pc = pc
                    else:
                        runs[-1].append(piece)
                    continue
                entries = shadow.materialize(block, piece)
            else:
                entries = (piece,)
            runs.append([])
            for offset, entry in entries:
                index = offset // step
                if load:
                    self._read_lane(index + delta, (block, offset), pc, entry, cv)
                else:
                    self._write_lane(index + delta, (block, offset),
                                     values[index - first], pc, entry, cv, group)
        for run in runs:
            if run:
                cell = shadow.fuse(block, run[0], run[-1])
                cell.write_clock = clock
                cell.write_delta = delta
                cell.write_pc = pc
                cell.group = group
                cell.values = values
                cell.value_delta = -first
                cell.read_clock = 0
        return True

    def process_trace(self, trace: Trace) -> DetectorReports:
        """Run a full trace, packed into rows (:func:`ops_to_rows`)
        through :meth:`process_columnar`; the accumulated reports."""
        granularity = self.config.granularity_bytes
        self.process_columnar(
            ops_to_rows(trace.ops, self.layout, granularity), granularity)
        return self.reports

    def ptvc_stats(self) -> PTVCStats:
        """Current PTVC compression statistics (experiment E6)."""
        return self.clocks.stats()
