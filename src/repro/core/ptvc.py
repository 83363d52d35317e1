"""Per-thread vector clock (PTVC) management with lossless compression
(paper §4.3.1, Figure 7).

A race detector for an n-thread program nominally stores n per-thread
vector clocks of n entries each — hundreds of gigabytes for the >1M-thread
kernels of Table 1.  BARRACUDA's observation is that ~90% of the time all
threads of a warp share (almost) the same PTVC, differing only in their
own entry, and that barriers give whole blocks a uniform view.  PTVCs are
therefore managed *at warp granularity*:

* each warp carries a stack of groups mirroring the hardware SIMT stack;
* one group = one active mask (an int of lane bits, as the hardware's
  register) + one shared :class:`StructuredVC` ``base``;
* a member thread ``t``'s full PTVC is ``base`` with its own entry raised
  to ``base(t) + 1`` (a thread is always one step ahead of what anyone
  else has seen of it — the FastTrack invariant);
* threads that perform point-to-point synchronization (acquire/release)
  temporarily *deviate* onto a private clock (the SPARSEVC format) and are
  re-absorbed into their group at the next lockstep join.

The four formats of Figure 7 are recovered as classifications of this
state: CONVERGED (one group, full warp, warp-uniform base), DIVERGED
(split groups, uniform lane clocks), NESTEDDIVERGED (split groups,
per-lane clocks), SPARSEVC (deviant threads).

Compression is lossless in the sense that matters: race verdicts are
identical to the uncompressed reference detector.  Group joins use a
*uniform broadcast* (one warp- or block-layer entry at the members'
maximum clock instead of per-thread entries).  This is sound and precise
because a broadcast only ever covers the join's own members: every epoch
a member issued before the join is ≤ the broadcast value, and every epoch
issued after is ≥ broadcast + 1, so orderings against outside threads are
unchanged.  The property-based tests cross-check verdicts against the
reference detector on random traces.

Each clock rule has one form, whoever is deviant: a join's or a
complete barrier's high is one max over the stored entries covering the
non-deviant members, maxed with each deviant's private self clock, and
each deviant's clock is folded into the new base as it rejoins.  The
thread-by-thread rules they equal, entry for entry, are
``tests/oracle.py::PerThreadPTVCManager``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from ..errors import TraceError
from ..trace.layout import GridLayout, mask_lanes
from .structured import StructuredVC
from .vectorclock import Epoch


class PTVCFormat(enum.Enum):
    """The four PTVC formats of Figure 7."""

    CONVERGED = "converged"
    DIVERGED = "diverged"
    NESTED_DIVERGED = "nested-diverged"
    SPARSE = "sparse"


@dataclass
class _Group:
    """One SIMT-stack entry: an active mask sharing one base clock.

    ``mask`` holds the members as lane bits (:meth:`GridLayout.warp_span`).
    ``paused`` holds the bases of sibling groups that finished their
    branch path and are waiting for reconvergence (their members are
    inactive, but their clocks must survive until the ``fi`` join).
    ``phase`` enforces the trace grammar (if → else → fi, with empty
    paths encoded as empty masks).
    """

    mask: int
    base: StructuredVC
    paused: List[StructuredVC] = field(default_factory=list)
    phase: str = "base"


@dataclass
class PTVCStats:
    """Occupancy statistics for the compression ablation (experiment E6)."""

    format_counts: Dict[PTVCFormat, int] = field(
        default_factory=lambda: {fmt: 0 for fmt in PTVCFormat}
    )
    #: Stored clock entries across all warp groups and deviants.
    stored_entries: int = 0
    #: Entries a dense per-thread-VC representation would store (n^2).
    dense_entries: int = 0

    @property
    def compression_ratio(self) -> float:
        if self.stored_entries == 0:
            return float("inf")
        return self.dense_entries / self.stored_entries

    @property
    def warp_uniform_fraction(self) -> float:
        """Fraction of warps in the cheap formats (paper's ~90% claim)."""
        total = sum(self.format_counts.values())
        if total == 0:
            return 1.0
        cheap = (
            self.format_counts[PTVCFormat.CONVERGED]
            + self.format_counts[PTVCFormat.DIVERGED]
        )
        return cheap / total


class PTVCManager:
    """All per-thread clocks of one launch, compressed at warp granularity.

    This is the ``C`` component of the analysis state, plus the analysis
    mirror of the hardware SIMT stack (``K``).
    """

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        # Grid shape scalars: the per-access queries below compute warp
        # ids with one divmod instead of a layout method call.
        self._tpb = layout.threads_per_block
        self._ws = layout.warp_size
        self._wpb = layout.warps_per_block
        self._stacks: Dict[int, List[_Group]] = {
            w: [_Group((1 << layout.warp_span(w)[1]) - 1, StructuredVC(layout))]
            for w in layout.all_warps()
        }
        #: Deviant threads: complete private clocks (SPARSEVC format).
        self._deviant: Dict[int, StructuredVC] = {}
        #: Join-fork operations performed (lockstep joins, branch joins,
        #: and barriers) — the clock-maintenance work measure exported as
        #: the ``repro_vector_clock_joins_total`` metric.
        self.joins = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _top(self, warp: int) -> _Group:
        return self._stacks[warp][-1]

    def active_mask(self, warp: int) -> int:
        """The active lanes of ``warp``, as bits."""
        return self._top(warp).mask

    def active_tids(self, warp: int) -> FrozenSet[int]:
        """The active threads of ``warp`` (for a report: not per access)."""
        first = self.layout.warp_span(warp)[0]
        return frozenset(first + lane for lane in mask_lanes(self._top(warp).mask))

    def value(self, owner: int, tid: int) -> int:
        """``C_owner(tid)``: what ``owner``'s clock records for ``tid``."""
        dev = self._deviant.get(owner)
        if dev is not None:
            return dev.get(tid)
        block, lane = divmod(owner, self._tpb)
        base = self._stacks[block * self._wpb + lane // self._ws][-1].base
        if owner == tid:
            return base.get(owner) + 1
        return base.get(tid)

    def epoch(self, tid: int) -> Epoch:
        """``E(t)``: the current epoch of thread ``tid``: its private
        clock's own entry if it is deviant, else one above what its
        group base records of it."""
        dev = self._deviant.get(tid)
        if dev is not None:
            return Epoch(dev.get(tid), tid)
        block, lane = divmod(tid, self._tpb)
        base = self._stacks[block * self._wpb + lane // self._ws][-1].base
        return Epoch(base.get(tid) + 1, tid)

    def covers(self, owner: int, epoch: Epoch) -> bool:
        """``c@u ⪯ C_owner`` in O(1).

        This is the innermost comparison of every shadow-memory check,
        so the common non-deviant case inlines :meth:`value` — one stack
        index and one structured-clock read, no intermediate frames.
        """
        etid = epoch.tid
        dev = self._deviant.get(owner)
        if dev is None:
            block, lane = divmod(owner, self._tpb)
            base = self._stacks[block * self._wpb + lane // self._ws][-1].base
            if owner == etid:
                return epoch.clock <= base.get(owner) + 1
            return epoch.clock <= base.get(etid)
        if owner == etid:
            return epoch.clock <= dev.get(owner)
        return epoch.clock <= dev.get(etid)

    def converged_view(self, warp: int, lo: int, hi: int
                       ) -> "ConvergedWarpView":
        """A per-record clock-query view for ``warp``'s top group.

        Only valid while no thread anywhere is deviant and only for
        owner threads in ``[lo, hi)`` (the warp's tid range); the fused
        columnar loop checks both before constructing one.  Memory
        accesses never create deviants or replace the group base, so a
        view stays exact for the duration of one record.
        """
        return ConvergedWarpView(self._top(warp).base, warp,
                                 warp // self._wpb, lo, hi)

    def materialize(self, tid: int) -> StructuredVC:
        """``C_tid`` as a standalone clock (used by acquire/release)."""
        dev = self._deviant.get(tid)
        if dev is not None:
            return dev.copy()
        vc = self._top(self.layout.warp_of(tid)).base.copy()
        vc.set_lane(tid, vc.get(tid) + 1)
        return vc

    # ------------------------------------------------------------------
    # Join-fork: the engine behind endi / branches / barriers
    # ------------------------------------------------------------------
    def _stored_high(self, base: StructuredVC, warp: int, first: int,
                     members: int) -> int:
        """The highest entry ``base`` stores for a member of ``warp``
        (lane bits ``members``, none of them deviant; ``first`` is the
        warp's first thread).

        A non-deviant member's self clock is one above the max of the
        layers covering it, and the members share their warp and block
        entries: one above this value is the members' highest self
        clock, with no per-lane ``get``."""
        high = base.warps.get(warp, 0)
        block_value = base.blocks.get(warp // self._wpb, 0)
        if block_value > high:
            high = block_value
        lanes = base.lanes
        if lanes:
            if len(lanes) <= members.bit_length():
                for tid, clock in lanes.items():
                    if (clock > high and tid >= first
                            and members >> (tid - first) & 1):
                        high = clock
            else:
                for lane in mask_lanes(members):
                    clock = lanes.get(first + lane, 0)
                    if clock > high:
                        high = clock
        return high

    def _fold(self, joined: StructuredVC, base: StructuredVC, warp: int,
              first: int, members: int) -> Tuple[int, bool]:
        """Re-absorb the deviants among ``members`` (lane bits of
        ``warp``, whose group base is ``base``): join their private
        clocks into ``joined``, in tid order, and drop them from the
        deviant map.

        Returns the members' highest self clock — a deviant's own
        private entry, the rest's one above :meth:`_stored_high` — and
        whether any member was deviant."""
        # The deviant members in tid order, the order the per-thread
        # rule folds them in: scan the shorter of the two.
        deviant = self._deviant
        candidates = (sorted(deviant) if len(deviant) <= members.bit_length()
                      else [first + lane for lane in mask_lanes(members)])
        high = 0
        steady = members
        for tid in candidates:
            bit = tid - first
            if bit < 0 or not members >> bit & 1 or tid not in deviant:
                continue
            dev = deviant.pop(tid)
            joined.join(dev)
            clock = dev.get(tid)
            if clock > high:
                high = clock
            steady &= ~(1 << bit)
        if steady:
            clock = self._stored_high(base, warp, first, steady) + 1
            if clock > high:
                high = clock
        return high, steady != members

    def _join_fork(self, warp: int, members: int) -> None:
        """Join the clocks of ``members`` (lane bits) and fork each one
        step ahead.

        Members must be the current top group of ``warp``.  The high is
        their highest self clock, their deviants folded in
        (:meth:`_fold`).  A full warp then takes one warp-layer entry at
        the high (the CONVERGED format), which drops the member lanes it
        dominates; any other mask takes one lane entry per member at the
        high (DIVERGED / NESTEDDIVERGED).  Every new entry is strictly
        above the warp and block entries covering it, so the base stays
        normalized unless a deviant's clock brought in entries a coarser
        layer dominates.
        """
        if not members:
            return
        self.joins += 1
        group = self._stacks[warp][-1]
        base = group.base
        first, count = self.layout.warp_span(warp)
        joined = base.copy()
        high, folded = self._fold(joined, base, warp, first, members)
        lanes = joined.lanes
        if members == (1 << count) - 1:
            if lanes:
                end = first + count
                mine = ([t for t in lanes if first <= t < end]
                        if len(lanes) <= count
                        else [t for t in range(first, end) if t in lanes])
                for tid in mine:
                    del lanes[tid]
            joined.warps[warp] = high
        else:
            for lane in mask_lanes(members):
                lanes[first + lane] = high
        if folded:
            joined.normalize()
        group.base = joined

    def end_instruction(self, warp: int) -> None:
        """The ENDINSN rule: lockstep join of the active threads."""
        self._join_fork(warp, self._top(warp).mask)

    # ------------------------------------------------------------------
    # Branches (IF / ELSEENDIF rules)
    # ------------------------------------------------------------------
    def branch_if(self, warp: int, then_bits: int, mask_bits: int) -> None:
        """The IF rule: the active lanes ``mask_bits`` split into the
        then path ``then_bits`` and the else path, the rest; together
        they must be the warp's active set."""
        stack = self._stacks[warp]
        current = stack[-1]
        else_bits = mask_bits & ~then_bits
        if then_bits | else_bits != current.mask:
            raise TraceError(f"if(w{warp}): masks do not split the active set")
        stack.append(_Group(else_bits, current.base, phase="else-pending"))
        stack.append(_Group(then_bits, current.base, phase="then"))
        self._join_fork(warp, then_bits)

    def branch_else(self, warp: int) -> None:
        stack = self._stacks[warp]
        if len(stack) < 3 or stack[-1].phase != "then":
            raise TraceError(f"else(w{warp}) with no matching if")
        finished = stack.pop()
        stack[-1].phase = "else-active"
        stack[-1].paused.append(finished.base)
        self._join_fork(warp, stack[-1].mask)

    def branch_fi(self, warp: int) -> None:
        stack = self._stacks[warp]
        if len(stack) < 2 or stack[-1].phase != "else-active":
            raise TraceError(f"fi(w{warp}) with no matching else")
        finished = stack.pop()
        revealed = stack[-1]
        # Fold the clocks of both finished paths into the reconverged
        # group, then join-fork the full reconverged mask.
        merged = revealed.base.copy()
        merged.join(finished.base)
        for paused_base in finished.paused:
            merged.join(paused_base)
        merged.normalize()
        revealed.base = merged
        self._join_fork(warp, revealed.mask)

    # ------------------------------------------------------------------
    # Barriers (BAR rule, with the §4.3.2 broadcast optimization)
    # ------------------------------------------------------------------
    def barrier(self, block: int, bits_by_warp: Dict[int, int]) -> bool:
        """The BAR rule over the warps a barrier at ``block`` covers: one
        block, or — ``block < 0``, a cooperative sync — the whole grid.
        ``bits_by_warp`` holds the arrived lanes
        (:meth:`GridLayout.bits_by_warp`).  Whether every covered thread
        arrived: False is a barrier divergence.

        Each distinct top-group base is joined once (after a barrier
        every warp of a block holds the same one) and the participants'
        deviants are folded in.  A complete barrier is the §4.3.2
        broadcast: one block-layer entry per covered block at the
        participants' high (:meth:`_fold`).  A divergent one keeps
        per-lane entries, each participant's own self clock, and a
        participant whose group is only partly active deviates, so the
        group's other members keep their view."""
        self.joins += 1
        layout = self.layout
        full = layout.barrier_complete(block, bits_by_warp)
        warp_span = layout.warp_span
        deviant = self._deviant
        participants = []
        joined = None
        joined_ids = set()
        high = 0
        for warp in layout.barrier_warps(block):
            group = self._stacks[warp][-1]
            lanes = group.mask if full else group.mask & bits_by_warp.get(warp, 0)
            if not lanes:
                continue
            base = group.base
            first = warp_span(warp)[0]
            participants.append((group, first, lanes))
            # The base is knowledge common to every member of the group,
            # so it is below each participant's clock and safe to join.
            if id(base) not in joined_ids:
                joined_ids.add(id(base))
                if joined is None:
                    joined = base.copy()
                else:
                    joined.join(base)
            if full:
                group_high = self._fold(joined, base, warp, first, lanes)[0]
                if group_high > high:
                    high = group_high
                continue
            # Each lane's deviant is folded as its entry is set, so the
            # entries are stored in the per-thread rule's order.
            for lane in mask_lanes(lanes):
                tid = first + lane
                dev = deviant.pop(tid, None)
                if dev is None:
                    clock = base.get(tid) + 1
                else:
                    joined.join(dev)
                    clock = dev.get(tid)
                joined.lanes[tid] = clock
        if joined is None:
            return full
        if full:
            covered = range(layout.num_blocks) if block < 0 else (block,)
            for member in covered:
                joined.set_block(member, high)
        joined.normalize()
        for group, first, lanes in participants:
            if lanes == group.mask:
                group.base = joined
                continue
            # A partially-active group at a barrier (only reachable
            # through malformed traces): deviate the participants so
            # non-participants keep their old view.
            for lane in mask_lanes(lanes):
                tid = first + lane
                dev = joined.copy()
                dev.set_lane(tid, max(dev.get(tid), group.base.get(tid)) + 1)
                deviant[tid] = dev
        return full

    # ------------------------------------------------------------------
    # Point-to-point synchronization (deviation)
    # ------------------------------------------------------------------
    def acquire_into(self, tid: int, incoming: StructuredVC) -> None:
        """``C_t := C_t ⊔ incoming`` (the ACQ* rules): ``tid`` deviates."""
        dev = self._deviant.get(tid)
        if dev is None:
            dev = self.materialize(tid)
            self._deviant[tid] = dev
        dev.join(incoming)
        dev.normalize()

    def increment(self, tid: int) -> None:
        """``inc_t`` alone (used by acquire-release composition)."""
        dev = self._deviant.get(tid)
        if dev is None:
            dev = self.materialize(tid)
            self._deviant[tid] = dev
        dev.set_lane(tid, dev.get(tid) + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def format_of(self, warp: int) -> PTVCFormat:
        """Classify a warp's current PTVC format (Figure 7)."""
        if any(
            self.layout.warp_of(tid) == warp for tid in self._deviant
        ):
            return PTVCFormat.SPARSE
        stack = self._stacks[warp]
        top = stack[-1]
        lanes_here = [
            c for t, c in top.base.lanes.items() if self.layout.warp_of(t) == warp
        ]
        if len(stack) == 1 and not top.paused:
            return PTVCFormat.CONVERGED if not lanes_here else PTVCFormat.DIVERGED
        if len(set(lanes_here)) <= 1:
            return PTVCFormat.DIVERGED
        return PTVCFormat.NESTED_DIVERGED

    def stats(self) -> PTVCStats:
        """Current occupancy statistics for experiment E6."""
        stats = PTVCStats()
        counted = set()
        for warp in self.layout.all_warps():
            stats.format_counts[self.format_of(warp)] += 1
            for group in self._stacks[warp]:
                if id(group.base) not in counted:
                    counted.add(id(group.base))
                    stats.stored_entries += group.base.entry_count()
                for base in group.paused:
                    if id(base) not in counted:
                        counted.add(id(base))
                        stats.stored_entries += base.entry_count()
        for dev in self._deviant.values():
            stats.stored_entries += dev.entry_count()
        n = self.layout.total_threads
        stats.dense_entries = n * n
        return stats


class ConvergedWarpView:
    """Clock queries for one warp's record when nobody is deviant.

    :meth:`PTVCManager.value`, :meth:`~PTVCManager.epoch` and
    :meth:`~PTVCManager.covers` each re-derive the owner's warp id (a
    divmod), index its stack, and take the max over three clock layers.
    Within one memory record all those inputs are constant: the owner
    threads share a warp, the top group's base is not replaced until the
    trailing ``endi``, and memory accesses never create deviants.  This
    view freezes the warp/block layer max once and answers the same
    queries with a single lane-dict probe.

    Exactness: for a thread ``t`` in ``[lo, hi)`` (this warp's tid
    range), ``base.get(t) = max(lanes[t], warps[warp], blocks[block])``
    and the last two terms are the frozen ``_wb`` — so ``_get`` equals
    :meth:`StructuredVC.get` for those threads; any other thread falls
    back to the real ``base.get``.  Owners are always members of this
    warp (the fused loop only queries for its own active lanes).
    """

    __slots__ = ("_base", "_lanes", "_wb", "_lo", "_hi")

    def __init__(self, base: StructuredVC, warp: int, block: int,
                 lo: int, hi: int) -> None:
        self._base = base
        self._lanes = base.lanes
        wb = base.warps.get(warp, 0)
        block_value = base.blocks.get(block, 0)
        self._wb = wb if wb >= block_value else block_value
        self._lo = lo
        self._hi = hi

    def _get(self, tid: int) -> int:
        """``base.get(tid)`` for a thread of this warp."""
        value = self._lanes.get(tid, 0)
        wb = self._wb
        return value if value >= wb else wb

    def value(self, owner: int, tid: int) -> int:
        if owner == tid:
            return self._get(tid) + 1
        if self._lo <= tid < self._hi:
            return self._get(tid)
        return self._base.get(tid)

    def epoch(self, tid: int) -> Epoch:
        return Epoch(self._get(tid) + 1, tid)

    def covers(self, owner: int, epoch: Epoch) -> bool:
        etid = epoch.tid
        if self._lo <= etid < self._hi:
            value = self._get(etid)
            if owner == etid:
                value += 1
            return epoch.clock <= value
        return epoch.clock <= self._base.get(etid)

    def uniform_clock(self) -> int:
        """The self clock every thread of this warp shares, or 0 when the
        base holds a lane entry for one of them (the warp is DIVERGED)."""
        lanes = self._lanes
        if lanes and not lanes.keys().isdisjoint(range(self._lo, self._hi)):
            return 0
        return self._wb + 1

    def covers_warp(self, clock: int, tid: int) -> bool:
        """``clock@u ⪯ C_t`` for every thread ``u`` of ``tid``'s warp and
        every other thread ``t`` of this one, in one comparison.

        Only asked while :meth:`uniform_clock` is non-zero, which makes
        the answer exact for this warp's own threads.  For another warp
        it compares against the warp and block layers alone, so it may
        say no to an epoch a lane entry covers; callers then ask lane by
        lane.
        """
        if self._lo <= tid < self._hi:
            return clock <= self._wb
        base = self._base
        layout = base.layout
        return (clock <= base.warps.get(layout.warp_of(tid), 0)
                or clock <= base.blocks.get(layout.block_of(tid), 0))
