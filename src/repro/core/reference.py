"""The reference detector: the operational semantics of Figures 2 and 3,
executed with one explicit vector clock per thread.

This implementation favours direct correspondence with the paper's rules
over efficiency.  It serves two roles:

* the executable form of the semantics for the Theorem 1 property tests
  (reference verdict ≡ declarative :mod:`repro.core.syncorder` verdict);
* the oracle that the production detector (:mod:`repro.core.detector`,
  with compressed PTVCs) must agree with bit-for-bit on reports.

One documented deviation: the release rules *join* the releaser's clock
into ``S_x`` rather than overwriting it.  CUDA releases are plain
fence+store idioms with no lock discipline, so overwriting could drop a
previous unrelated release and miss synchronization that §3.2's trace
definition mandates; joining matches the declarative definition exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..trace.layout import GridLayout
from ..trace.operations import (
    THREAD_OPS,
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
    Write,
)
from ..trace.stack import WarpStackSet
from ..trace.trace import Trace
from .races import (
    AccessType,
    BarrierDivergenceReport,
    DetectorConfig,
    DetectorReports,
    classify,
)
from .vectorclock import Epoch, VectorClock


@dataclass
class _WriteMeta:
    """``W_x``: (write epoch, atomic bit) plus diagnostics.

    ``value`` and ``group`` (the warp-instruction identity of the write)
    support the same-value filter; the pc supports race reports.  Epoch
    comparison ignores the atomic bit.
    """

    epoch: Epoch
    atomic: bool = False
    value: Optional[int] = None
    group: Tuple[int, int] = (-1, -1)
    pc: int = -1


@dataclass
class _ReadMeta:
    """``R_x``: an epoch or, after concurrent reads, a vector clock."""

    epoch: Optional[Epoch] = None  # set when in epoch form
    clock: Optional[VectorClock] = None  # set when in VC form
    #: pc of the last read per thread, for diagnostics.
    pcs: Dict[int, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pcs is None:
            self.pcs = {}


class ReferenceDetector:
    """BARRACUDA's algorithm with uncompressed per-thread vector clocks."""

    def __init__(
        self, layout: GridLayout, config: Optional[DetectorConfig] = None
    ) -> None:
        self.layout = layout
        self.config = config or DetectorConfig()
        self.reports = DetectorReports()
        # sigma_0: each thread starts with its own entry incremented.
        self.clocks: Dict[int, VectorClock] = {}
        for tid in layout.all_tids():
            clock = VectorClock()
            clock.increment(tid)
            self.clocks[tid] = clock
        self.stacks = WarpStackSet(layout)
        # S_x: synchronization location -> block -> vector clock.
        self.sync: Dict[Location, Dict[int, VectorClock]] = {}
        self.reads: Dict[Location, _ReadMeta] = {}
        self.writes: Dict[Location, _WriteMeta] = {}
        # Per-warp instruction counters: two writes are from the same warp
        # instruction iff their (warp, counter) identities match, which
        # scopes the same-value filter to lockstep instructions only.
        self._instr: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def epoch_of(self, tid: int) -> Epoch:
        """``E(t)``: the current epoch of thread ``tid``."""
        return self.clocks[tid].epoch_of(tid)

    def _read_meta(self, loc: Location) -> _ReadMeta:
        meta = self.reads.get(loc)
        if meta is None:
            meta = _ReadMeta(epoch=Epoch.bottom())
            self.reads[loc] = meta
        return meta

    def _write_meta(self, loc: Location) -> _WriteMeta:
        meta = self.writes.get(loc)
        if meta is None:
            meta = _WriteMeta(epoch=Epoch.bottom())
            self.writes[loc] = meta
        return meta

    def _sync_clock(self, loc: Location, block: int) -> VectorClock:
        per_block = self.sync.setdefault(loc, {})
        clock = per_block.get(block)
        if clock is None:
            clock = VectorClock()
            per_block[block] = clock
        return clock

    def _is_active(self, tid: int) -> bool:
        return self.stacks.is_active(tid)

    def _report_race(
        self,
        loc: Location,
        tid: int,
        access: AccessType,
        prior_tid: int,
        prior_access: AccessType,
        pc: int,
        prior_pc: int,
    ) -> None:
        amask = self.stacks.active(self.layout.warp_of(tid))
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
            )
        )

    def _group_of(self, tid: int) -> Tuple[int, int]:
        """The warp-instruction identity of an access by ``tid`` now."""
        warp = self.layout.warp_of(tid)
        return (warp, self._instr.get(warp, 0))

    def _advance_group(self, warp: int) -> None:
        self._instr[warp] = self._instr.get(warp, 0) + 1

    def _check_write(
        self, loc: Location, tid: int, access: AccessType, pc: int, value=None
    ) -> None:
        """Check ``W_x ⪯ C_t`` (atomic bit ignored), reporting on failure."""
        w = self._write_meta(loc)
        if w.epoch.leq(self.clocks[tid]):
            return
        if (
            self.config.filter_same_value
            and access is AccessType.WRITE
            and value is not None
            and w.value == value
            and w.group == self._group_of(tid)
        ):
            self.reports.filtered_same_value += 1
            return
        prior = AccessType.ATOMIC if w.atomic else AccessType.WRITE
        self._report_race(loc, tid, access, w.epoch.tid, prior, pc, w.pc)

    def _check_reads(self, loc: Location, tid: int, access: AccessType, pc: int) -> None:
        """Check ``R_x ⪯ C_t`` / ``R_x ⊑ C_t``, reporting on failure."""
        r = self.reads.get(loc)
        if r is None:
            return
        clock = self.clocks[tid]
        if r.epoch is not None:
            if not r.epoch.leq(clock):
                self._report_race(
                    loc,
                    tid,
                    access,
                    r.epoch.tid,
                    AccessType.READ,
                    pc,
                    r.pcs.get(r.epoch.tid, -1),
                )
        else:
            assert r.clock is not None
            for reader, stamp in r.clock.items():
                if stamp > clock.get(reader):
                    self._report_race(
                        loc,
                        tid,
                        access,
                        reader,
                        AccessType.READ,
                        pc,
                        r.pcs.get(reader, -1),
                    )

    # ------------------------------------------------------------------
    # Memory access rules (Figure 2)
    # ------------------------------------------------------------------
    def _on_read(self, op: Read) -> None:
        tid, loc = op.tid, op.loc
        clock = self.clocks[tid]
        self._check_write(loc, tid, AccessType.READ, op.pc)
        r = self._read_meta(loc)
        if r.clock is not None:
            # READSHARED: already a vector clock.
            r.clock.set(tid, clock.get(tid))
        elif r.epoch is not None and r.epoch.leq(clock):
            # READEXCL: totally ordered after the previous read.
            r.epoch = self.epoch_of(tid)
        else:
            # READINFLATE: first concurrent read; inflate to a VC.
            assert r.epoch is not None
            vc = VectorClock()
            vc.set(tid, clock.get(tid))
            vc.join_epoch(r.epoch)
            r.epoch = None
            r.clock = vc
        r.pcs[tid] = op.pc

    def _on_write(self, op: Write) -> None:
        tid, loc = op.tid, op.loc
        self._check_write(loc, tid, AccessType.WRITE, op.pc, value=op.value)
        self._check_reads(loc, tid, AccessType.WRITE, op.pc)
        # WRITEEXCL / WRITESHARED: reset reads, record the write epoch.
        self.reads[loc] = _ReadMeta(epoch=Epoch.bottom())
        self.writes[loc] = _WriteMeta(
            epoch=self.epoch_of(tid),
            atomic=False,
            value=op.value,
            group=self._group_of(tid),
            pc=op.pc,
        )

    def _on_atomic(self, op: Atomic) -> None:
        tid, loc = op.tid, op.loc
        w = self._write_meta(loc)
        if not w.atomic:
            # INITATOM*: previous write was non-atomic; check it and reads.
            self._check_write(loc, tid, AccessType.ATOMIC, op.pc)
            self._check_reads(loc, tid, AccessType.ATOMIC, op.pc)
        else:
            # ATOM*: atomics do not race with each other; check reads only.
            self._check_reads(loc, tid, AccessType.ATOMIC, op.pc)
        self.reads[loc] = _ReadMeta(epoch=Epoch.bottom())
        self.writes[loc] = _WriteMeta(
            epoch=self.epoch_of(tid), atomic=True, value=None, pc=op.pc
        )

    # ------------------------------------------------------------------
    # Lockstep and branches (Figure 2)
    # ------------------------------------------------------------------
    def _join_fork(self, tids) -> None:
        """Join the clocks of ``tids`` and fork them with an increment."""
        if not tids:
            return
        joined = VectorClock()
        for tid in tids:
            joined.join(self.clocks[tid])
        for tid in tids:
            clock = joined.copy()
            clock.increment(tid)
            self.clocks[tid] = clock

    def _on_endi(self, op: EndInsn) -> None:
        self._join_fork(self.stacks.active(op.warp))
        self._advance_group(op.warp)

    def _on_if(self, op: If) -> None:
        then_mask = self.stacks.on_if(op)
        self._join_fork(then_mask)
        self._advance_group(op.warp)

    def _on_else(self, op: Else) -> None:
        self._join_fork(self.stacks.on_else(op))
        self._advance_group(op.warp)

    def _on_fi(self, op: Fi) -> None:
        self._join_fork(self.stacks.on_fi(op))
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
        # Synchronize whichever threads actually arrived *and* are on the
        # current path; for well-formed programs this is the whole block
        # (or, for a grid-wide barrier, the whole grid), as the BAR rule
        # requires.
        participants = frozenset(
            tid for tid in op.active if self.stacks.is_active(tid)
        )
        self._join_fork(participants)
        for warp in self.layout.barrier_warps(op.block):
            self._advance_group(warp)

    def _on_acquire(self, op: Acquire) -> None:
        tid = op.tid
        if op.scope is Scope.BLOCK:
            self.clocks[tid].join(self._sync_clock(op.loc, self.layout.block_of(tid)))
        else:
            for block, clock in self.sync.get(op.loc, {}).items():
                self.clocks[tid].join(clock)

    def _on_release(self, op: Release) -> None:
        tid = op.tid
        clock = self.clocks[tid]
        if op.scope is Scope.BLOCK:
            self._sync_clock(op.loc, self.layout.block_of(tid)).join(clock)
        else:
            for block in range(self.layout.num_blocks):
                self._sync_clock(op.loc, block).join(clock)
        clock.increment(tid)

    def _on_acqrel(self, op: AcqRel) -> None:
        tid = op.tid
        clock = self.clocks[tid]
        if op.scope is Scope.BLOCK:
            own = self._sync_clock(op.loc, self.layout.block_of(tid))
            clock.join(own)
            own.join(clock)
        else:
            for block, sync_clock in self.sync.get(op.loc, {}).items():
                clock.join(sync_clock)
            for block in range(self.layout.num_blocks):
                self._sync_clock(op.loc, block).join(clock)
        clock.increment(tid)

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
        """Apply one trace operation to the analysis state.

        Thread-level operations by inactive threads are NOPs, as every
        rule of Figure 2 implicitly requires the thread to be active.
        """
        if isinstance(op, THREAD_OPS):
            if not self._is_active(op.tid):
                return
        if getattr(self, "_dispatch", None) is None:
            self._dispatch = self._handlers()
        self._dispatch[type(op)](op)

    def process_trace(self, trace: Trace) -> DetectorReports:
        """Run the full trace and return the accumulated reports."""
        for op in trace.ops:
            self.process(op)
        return self.reports
