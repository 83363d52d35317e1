"""Grid-structured vector clocks: the compression substrate of §4.3.1.

A :class:`StructuredVC` stores a vector clock as three layers that mirror
the GPU thread hierarchy:

* ``blocks`` — one timestamp covering every thread of a block
  (the *block clock* of Figure 7, set by block barriers);
* ``warps`` — one timestamp covering every thread of a warp
  (the *local/warp clocks*, set by lockstep execution);
* ``lanes`` — per-thread timestamps (the sparse tail used for nested
  divergence and point-to-point synchronization).

The value for thread ``t`` is the maximum of the layers covering ``t``.
Joins distribute over the layers (pointwise max commutes with per-layer
max), so a join never needs to materialize per-thread entries.  This is
what makes million-thread grids affordable: a barrier is one entry in
``blocks`` instead of a million lane entries.

The representation is *lossless*: :meth:`get` returns exactly the value a
dense vector clock would hold, and the property tests verify equivalence
against :class:`repro.core.vectorclock.VectorClock` on random operation
sequences.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..trace.layout import GridLayout
from .vectorclock import Epoch, VectorClock


class StructuredVC:
    """A vector clock compressed along the grid hierarchy."""

    __slots__ = ("layout", "lanes", "warps", "blocks", "_tpb", "_ws", "_wpb")

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.lanes: Dict[int, int] = {}
        self.warps: Dict[int, int] = {}
        self.blocks: Dict[int, int] = {}
        # Grid shape scalars, cached so the per-access ``get`` below can
        # compute warp/block ids with one divmod instead of two layout
        # method calls — ``get`` is the single hottest detector call.
        self._tpb = layout.threads_per_block
        self._ws = layout.warp_size
        self._wpb = layout.warps_per_block

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, tid: int) -> int:
        """The clock value for thread ``tid`` (max over covering layers)."""
        block, lane = divmod(tid, self._tpb)
        value = self.lanes.get(tid, 0)
        warp_value = self.warps.get(block * self._wpb + lane // self._ws, 0)
        if warp_value > value:
            value = warp_value
        block_value = self.blocks.get(block, 0)
        if block_value > value:
            value = block_value
        return value

    def covers_epoch(self, epoch: Epoch) -> bool:
        """``c@t ⪯ self``: the O(1) FastTrack comparison."""
        return epoch.clock <= self.get(epoch.tid)

    def is_empty(self) -> bool:
        return not (self.lanes or self.warps or self.blocks)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def set_lane(self, tid: int, clock: int) -> None:
        """Raise thread ``tid``'s entry to at least ``clock``."""
        if clock > self.lanes.get(tid, 0):
            self.lanes[tid] = clock

    def set_warp(self, warp: int, clock: int) -> None:
        """Raise every entry of ``warp`` to at least ``clock``."""
        if clock > self.warps.get(warp, 0):
            self.warps[warp] = clock

    def set_block(self, block: int, clock: int) -> None:
        """Raise every entry of ``block`` to at least ``clock``.

        This is the §4.3.2 barrier broadcast: one entry instead of one per
        thread.
        """
        if clock > self.blocks.get(block, 0):
            self.blocks[block] = clock

    def join(self, other: "StructuredVC") -> None:
        """Pointwise max, computed layer by layer in place."""
        for tid, clock in other.lanes.items():
            if clock > self.lanes.get(tid, 0):
                self.lanes[tid] = clock
        for warp, clock in other.warps.items():
            if clock > self.warps.get(warp, 0):
                self.warps[warp] = clock
        for block, clock in other.blocks.items():
            if clock > self.blocks.get(block, 0):
                self.blocks[block] = clock

    def join_epoch(self, epoch: Epoch) -> None:
        if epoch.clock > 0:
            self.set_lane(epoch.tid, epoch.clock)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def normalize(self) -> None:
        """Drop entries dominated by a coarser layer.

        Keeps the footprint proportional to the amount of *irregular*
        synchronization rather than to thread count.  Ids come from the
        cached shape scalars, one divmod per lane entry, as in
        :meth:`get`.
        """
        blocks = self.blocks
        warps = self.warps
        wpb = self._wpb
        if blocks:
            self.warps = warps = {
                w: c for w, c in warps.items() if c > blocks.get(w // wpb, 0)
            }
        if self.lanes and (warps or blocks):
            tpb, ws = self._tpb, self._ws
            kept = {}
            for t, c in self.lanes.items():
                block, lane = divmod(t, tpb)
                if (c > warps.get(block * wpb + lane // ws, 0)
                        and c > blocks.get(block, 0)):
                    kept[t] = c
            self.lanes = kept

    def copy(self) -> "StructuredVC":
        clone = StructuredVC(self.layout)
        clone.lanes = dict(self.lanes)
        clone.warps = dict(self.warps)
        clone.blocks = dict(self.blocks)
        return clone

    # ------------------------------------------------------------------
    # Interop and diagnostics
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Stored entries — the compressed footprint measure for E6."""
        return len(self.lanes) + len(self.warps) + len(self.blocks)

    def to_dense(self) -> VectorClock:
        """Materialize as a plain sparse-by-thread vector clock.

        Only used by tests and diagnostics; O(total threads).
        """
        dense = VectorClock()
        for tid in self.layout.all_tids():
            value = self.get(tid)
            if value:
                dense.set(tid, value)
        return dense

    @staticmethod
    def from_dense(layout: GridLayout, dense: VectorClock) -> "StructuredVC":
        vc = StructuredVC(layout)
        for tid, clock in dense.items():
            vc.set_lane(tid, clock)
        return vc

    def nonzero_items(self) -> Iterator[Tuple[int, int]]:
        """Iterate (tid, clock) for threads with a non-zero value.

        Cost is proportional to the threads *covered by stored entries*,
        not to entry count; callers on hot paths should prefer layer-wise
        operations.
        """
        seen = set()
        for block in self.blocks:
            for tid in self.layout.block_tids(block):
                if tid not in seen:
                    seen.add(tid)
                    yield tid, self.get(tid)
        for warp in self.warps:
            for tid in self.layout.warp_tids(warp):
                if tid not in seen:
                    seen.add(tid)
                    yield tid, self.get(tid)
        for tid in self.lanes:
            if tid not in seen:
                seen.add(tid)
                yield tid, self.get(tid)

    def __eq__(self, other: object) -> bool:
        """Semantic equality: same value for every thread."""
        if not isinstance(other, StructuredVC):
            return NotImplemented
        if self.layout != other.layout:
            return False
        mine = dict(self.nonzero_items())
        theirs = dict(other.nonzero_items())
        return mine == theirs

    def __repr__(self) -> str:
        return (
            f"StructuredVC(blocks={self.blocks}, warps={self.warps}, "
            f"lanes={self.lanes})"
        )
