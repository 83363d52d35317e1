"""Grid layout: the thread hierarchy that traces and detectors share.

CUDA organizes runtime threads into a grid of thread blocks, each block
subdivided into warps of (up to) 32 threads (paper §2).  The detector's
PTVC compression (§4.3.1) leans on this structure, so both the simulator
and the detector agree on a single numbering scheme:

* the global thread id (TID) of thread ``i`` of block ``b`` is
  ``b * threads_per_block + i`` — mirroring the unique-TID computation the
  instrumentation adds to every kernel (§4.1);
* global warp ``w`` covers TIDs ``[w * warp_size, (w + 1) * warp_size)``.

Multi-dimensional launches are flattened by :mod:`repro.gpu.hierarchy`
before reaching this layer; the paper likewise discusses 1-D layouts and
handles 2-/3-D by flattening.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import LaunchConfigError

#: Warp size on every Nvidia architecture the paper targets.
DEFAULT_WARP_SIZE = 32


def mask_lanes(mask: int) -> List[int]:
    """The lanes of an active mask held as bits (bit ``l`` is lane ``l``
    of the warp), ascending."""
    return [lane for lane in range(mask.bit_length()) if mask >> lane & 1]


class GridLayout:
    """The shape of one kernel launch, flattened to 1-D.

    Parameters
    ----------
    num_blocks:
        Number of thread blocks in the grid.
    threads_per_block:
        Threads per block.  The last warp of each block may be partially
        full; the detector's initial active masks account for that
        (paper §3.3: "the last warp of each thread block may be only
        partially full").
    warp_size:
        Threads per warp; 32 on real hardware but configurable so tests can
        use small warps, exactly as the paper's worked example (Figure 7)
        uses 3-thread warps.
    """

    __slots__ = ("num_blocks", "threads_per_block", "warp_size", "_warps_per_block")

    def __init__(
        self,
        num_blocks: int,
        threads_per_block: int,
        warp_size: int = DEFAULT_WARP_SIZE,
    ) -> None:
        if num_blocks < 1 or threads_per_block < 1 or warp_size < 1:
            raise LaunchConfigError(
                f"invalid launch configuration: {num_blocks} blocks x "
                f"{threads_per_block} threads (warp size {warp_size})"
            )
        self.num_blocks = num_blocks
        self.threads_per_block = threads_per_block
        self.warp_size = warp_size
        self._warps_per_block = -(-threads_per_block // warp_size)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    @property
    def warps_per_block(self) -> int:
        """Warps per block, counting a trailing partial warp."""
        return self._warps_per_block

    @property
    def total_warps(self) -> int:
        return self.num_blocks * self.warps_per_block

    # ------------------------------------------------------------------
    # Id conversions
    # ------------------------------------------------------------------
    def tid(self, block: int, thread_in_block: int) -> int:
        """Global TID of ``thread_in_block`` within ``block``."""
        if not 0 <= block < self.num_blocks:
            raise LaunchConfigError(f"block {block} out of range")
        if not 0 <= thread_in_block < self.threads_per_block:
            raise LaunchConfigError(f"thread {thread_in_block} out of range")
        return block * self.threads_per_block + thread_in_block

    def block_of(self, tid: int) -> int:
        """The block containing global thread ``tid``."""
        return tid // self.threads_per_block

    def thread_in_block(self, tid: int) -> int:
        return tid % self.threads_per_block

    def warp_of(self, tid: int) -> int:
        """The *global* warp id containing ``tid``."""
        block, lane_block = divmod(tid, self.threads_per_block)
        return block * self._warps_per_block + lane_block // self.warp_size

    def lane_of(self, tid: int) -> int:
        """The lane (position within its warp) of ``tid``."""
        return self.thread_in_block(tid) % self.warp_size

    def block_of_warp(self, warp: int) -> int:
        return warp // self.warps_per_block

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def warp_span(self, warp: int) -> Tuple[int, int]:
        """``(first, lanes)``: global warp ``warp`` is TIDs ``first ..
        first + lanes - 1`` (partial last warp respected).  Lane ``l`` of
        the warp, and bit ``l`` of its active mask, is TID ``first + l``."""
        block, warp_in_block = divmod(warp, self._warps_per_block)
        start = warp_in_block * self.warp_size
        lanes = min(self.warp_size, self.threads_per_block - start)
        return block * self.threads_per_block + start, lanes

    def bits_by_warp(self, tids: Iterable[int]) -> Dict[int, int]:
        """``tids`` as active masks: ``{warp: lane bits}`` for every warp
        holding one of them, bit ``l`` being TID ``first + l`` of
        :meth:`warp_span`.  A tuple of consecutive TIDs (a converged
        block's barrier mask, as the mask pool holds it) costs one step
        per warp, not per TID."""
        bits: Dict[int, int] = {}
        if (type(tids) is tuple and tids
                and tids == tuple(range(tids[0], tids[0] + len(tids)))):
            lo, hi = tids[0], tids[0] + len(tids)
            warp = self.warp_of(lo)
            first, count = self.warp_span(warp)
            while first < hi:
                start, end = max(lo, first), min(hi, first + count)
                bits[warp] = ((1 << (end - start)) - 1) << (start - first)
                warp += 1
                first, count = self.warp_span(warp)
            return bits
        tpb, ws, wpb = (
            self.threads_per_block, self.warp_size, self._warps_per_block)
        for tid in tids:
            block, in_block = divmod(tid, tpb)
            warp_in_block, lane = divmod(in_block, ws)
            warp = block * wpb + warp_in_block
            bits[warp] = bits.get(warp, 0) | 1 << lane
        return bits

    def warp_tids(self, warp: int) -> List[int]:
        """All TIDs in global warp ``warp`` (partial last warp respected)."""
        first, lanes = self.warp_span(warp)
        return list(range(first, first + lanes))

    def block_tids(self, block: int) -> List[int]:
        base = block * self.threads_per_block
        return [base + i for i in range(self.threads_per_block)]

    def block_warps(self, block: int) -> List[int]:
        base = block * self.warps_per_block
        return [base + w for w in range(self.warps_per_block)]

    def all_tids(self) -> Iterator[int]:
        return iter(range(self.total_threads))

    def all_warps(self) -> Iterator[int]:
        return iter(range(self.total_warps))

    # A negative block id on a barrier is the grid-wide (cooperative)
    # sync sentinel (:data:`repro.events.GRID_BARRIER_BLOCK`): the
    # barrier's scope is the whole grid, not one block.
    def barrier_tids(self, block: int) -> List[int]:
        """TIDs a barrier at ``block`` synchronizes (grid-wide if < 0)."""
        if block < 0:
            return list(range(self.total_threads))
        return self.block_tids(block)

    def barrier_complete(self, block: int, bits_by_warp: Dict[int, int]) -> bool:
        """Whether ``bits_by_warp`` (:meth:`bits_by_warp`) is every TID a
        barrier at ``block`` covers: a barrier's mask lies inside its
        scope (the engine emits no other, ``ColumnarBatch.check_layout``
        refuses any other), so it is complete iff it is as large."""
        scope = self.total_threads if block < 0 else self.threads_per_block
        return sum(bin(bits).count("1")
                   for bits in bits_by_warp.values()) == scope

    def barrier_warps(self, block: int) -> List[int]:
        """Warps a barrier at ``block`` synchronizes (grid-wide if < 0)."""
        if block < 0:
            return list(range(self.total_warps))
        return self.block_warps(block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridLayout):
            return NotImplemented
        return (
            self.num_blocks == other.num_blocks
            and self.threads_per_block == other.threads_per_block
            and self.warp_size == other.warp_size
        )

    def __hash__(self) -> int:
        return hash((self.num_blocks, self.threads_per_block, self.warp_size))

    def __repr__(self) -> str:
        return (
            f"GridLayout(blocks={self.num_blocks}, "
            f"threads_per_block={self.threads_per_block}, "
            f"warp_size={self.warp_size})"
        )
