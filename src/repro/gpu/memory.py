"""Device memory with a configurable weak-consistency model.

The paper's Figure 4 litmus tests show that on a Kepler K520 a
``membar.cta`` in each thread of a message-passing pair is *not* enough
to prevent non-SC outcomes across thread blocks, while a ``membar.gl`` in
either thread is; a Maxwell Titan X showed no weak outcomes at all.

We model the mechanism with per-block store queues in front of a single
coherence point (main memory):

* a global store enters its block's queue; threads of the same block
  forward from the queue (intra-block program order is always visible).
  A warp's store of consecutive words enters as one run
  (:class:`_QueuedStore`), which every drain treats as that many
  one-lane stores;
* queue entries drain to main memory lazily — in FIFO order on strong
  architectures (the Titan X profile), in relaxed order on weak ones
  (the K520 profile), except that two stores to the same address always
  drain in order (per-location coherence);
* ``membar.gl`` (and ``membar.sys``) drains *every* queue: a global
  fence on either side of a message-passing pair therefore restores SC,
  matching Figure 4 exactly;
* ``membar.cta`` does nothing here — it only orders visibility within
  the block, which store forwarding already provides;
* atomics operate at the coherence point, draining queued stores to
  their address first.

Shared memory is private to a block (§2) and strongly ordered.

Each address space is one flat :class:`ByteStore` extent: the global
heap ``[GLOBAL_HEAP_BASE, alloc cursor)``, a block's declared shared
bytes, a thread's local bytes up to its highest store.  An access
outside its extent raises ``SimulationError("illegal address …")``, as
the GPU faults, instead of reading zero.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError

#: Base device address of the global-memory heap.  Non-zero so that a
#: null pointer never aliases an allocation.
GLOBAL_HEAP_BASE = 0x1000_0000


@dataclass(frozen=True)
class ArchProfile:
    """Memory-model strength of a simulated GPU."""

    name: str
    #: Relaxed (non-FIFO) draining of global store queues: the K520
    #: behaviour that makes ``membar.cta``-only message passing unsound.
    relaxed_store_drain: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The two GPUs of the paper's litmus study (§3.3.3).
KEPLER_K520 = ArchProfile(name="GRID K520 (Kepler)", relaxed_store_drain=True)
MAXWELL_TITANX = ArchProfile(name="GTX Titan X (Maxwell)", relaxed_store_drain=False)


#: CUDA's per-thread ``.local`` limit (compute capability 2.0 and up): a
#: local store past it is an illegal address, not a huge extent.
LOCAL_BYTES_PER_THREAD = 512 * 1024

#: The unsigned ``array`` code of each access width: a run of words is
#: one slice of an extent decoded by one ``array``, little-endian.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"


class ByteStore:
    """A contiguous byte extent ``[base, base + len(data))``, accessed
    little-endian; an access outside it is an illegal address, as on
    the GPU."""

    __slots__ = ("base", "data")

    def __init__(self, base: int = 0, size: int = 0) -> None:
        self.base = base
        self.data = bytearray(size)

    def grow(self, end: int) -> None:
        """Zero-extend the extent to cover every address below ``end``."""
        missing = end - self.base - len(self.data)
        if missing > 0:
            self.data.extend(bytes(missing))

    def offset(self, addr: int, width: int) -> int:
        """Where ``[addr, addr + width)`` starts in ``data``."""
        offset = addr - self.base
        if offset < 0 or offset + width > len(self.data):
            raise SimulationError(
                f"illegal address {addr:#x}: {width}-byte access outside "
                f"[{self.base:#x}, {self.base + len(self.data):#x})"
            )
        return offset

    def read(self, addr: int, width: int) -> int:
        offset = self.offset(addr, width)
        return int.from_bytes(self.data[offset:offset + width], "little")

    def write(self, addr: int, width: int, value: int) -> None:
        offset = self.offset(addr, width)
        self.data[offset:offset + width] = (
            value & ((1 << (8 * width)) - 1)
        ).to_bytes(width, "little")

    def read_words(self, addr: int, count: int, width: int) -> List[int]:
        """The ``count`` unsigned ``width``-byte words from ``addr``."""
        offset = self.offset(addr, count * width)
        words = array(_WORD_CODES[width])
        words.frombytes(self.data[offset:offset + count * width])
        if _BIG_ENDIAN:
            words.byteswap()
        return words.tolist()

    def write_words(self, addr: int, values, width: int) -> None:
        """Store ``values`` as consecutive ``width``-byte words from
        ``addr``, each cut to its low ``width`` bytes."""
        data = _word_bytes(values, width)
        offset = self.offset(addr, len(data))
        self.data[offset:offset + len(data)] = data

    def read_run(self, addr: int, count: int, width: int) -> Optional[List[int]]:
        """:meth:`read_words`, or ``None`` when the run leaves the
        extent."""
        if not self.holds(addr, count * width):
            return None
        return self.read_words(addr, count, width)

    def holds(self, addr: int, size: int) -> bool:
        """Whether ``[addr, addr + size)`` lies inside the extent."""
        offset = addr - self.base
        return offset >= 0 and offset + size <= len(self.data)


def _word_bytes(values, width: int) -> bytearray:
    """``values`` as consecutive little-endian ``width``-byte words,
    each cut to its low ``width`` bytes."""
    code = _WORD_CODES[width]
    if not isinstance(values, (list, tuple, range)):
        values = list(values)  # read twice if the fast path refuses it
    try:  # Words already in range, as a store's unsigned values are.
        words = array(code, values)
    except (OverflowError, TypeError):
        mask = (1 << (8 * width)) - 1
        words = array(code, [int(value) & mask for value in values])
    if _BIG_ENDIAN:
        words.byteswap()
    return bytearray(words.tobytes())


class _QueuedStore:
    """A run of consecutive ``width``-byte words one block stored,
    waiting in its queue: lane ``k`` of the run wrote
    ``data[k * width:(k + 1) * width]`` at ``addr + k * width``.

    The weak-memory model drains *lanes*: a run is only a compact
    spelling of that many one-lane entries queued back to back, and a
    lane-by-lane store is a run of one.  A drain that needs one lane
    splits the run there (:meth:`GlobalMemory._drain_lanes`).
    """

    __slots__ = ("addr", "width", "data")

    def __init__(self, addr: int, width: int, data: bytearray) -> None:
        self.addr = addr
        self.width = width
        self.data = data

    def lanes_over(self, lo: int, hi: int) -> range:
        """The lanes whose word overlaps ``[lo, hi)``."""
        width = self.width
        return range(max(0, (lo - self.addr) // width),
                     min(len(self.data), hi - self.addr + width - 1) // width)


class GlobalMemory:
    """Global memory: main store + per-block store queues."""

    def __init__(self, arch: ArchProfile = MAXWELL_TITANX) -> None:
        self.arch = arch
        #: The heap: ``alloc`` bumps its end, so it is one extent.
        self.main = ByteStore(GLOBAL_HEAP_BASE)
        #: Non-empty store queues only: a drained queue is dropped, so
        #: every drain costs what is pending, not every block that ever
        #: stored.
        self._queues: Dict[int, Deque[_QueuedStore]] = {}
        #: The keys of ``_queues`` in ascending block order, updated as
        #: queues are created and dropped, so ``drain_heads`` visits
        #: them in that order without sorting.
        self._blocks: List[int] = []
        #: Blocks ranked by their first store.  ``atomic`` and
        #: ``drain_all`` visit queues in this order, which decides the
        #: surviving value of a cross-block write-write race.
        self._store_rank: Dict[int, int] = {}
        #: Bytes handed out by ``alloc``, alignment padding excluded.
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    # Allocation (the cudaMalloc face of the device)
    # ------------------------------------------------------------------
    def alloc(self, size: int, align: int = 8) -> int:
        """Bump-allocate ``size`` zeroed bytes of device global memory."""
        if size <= 0:
            raise SimulationError(f"cannot allocate {size} bytes")
        main = self.main
        cursor = -(-(main.base + len(main.data)) // align) * align
        main.grow(cursor + size)
        self.allocated_bytes += size
        return cursor

    # ------------------------------------------------------------------
    # Device accesses
    # ------------------------------------------------------------------
    def _queue(self, block: int) -> Deque[_QueuedStore]:
        """``block``'s store queue, created (and ranked, on its first
        store ever) if it has none."""
        queue = self._queues.get(block)
        if queue is None:
            queue = self._queues[block] = deque()
            self._store_rank.setdefault(block, len(self._store_rank))
            blocks = self._blocks
            if blocks and block < blocks[-1]:
                insort(blocks, block)
            else:
                blocks.append(block)
        return queue

    def _drop(self, block: int) -> None:
        """Forget ``block``'s emptied queue."""
        del self._queues[block]
        blocks = self._blocks
        del blocks[bisect_left(blocks, block)]

    def store(self, block: int, addr: int, width: int, value: int) -> None:
        """A device store from ``block``: enters the block's queue (an
        illegal address faults now, not when the store drains)."""
        self.main.offset(addr, width)
        self._queue(block).append(_QueuedStore(addr, width, bytearray(
            (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little"))))

    def store_run(self, block: int, addr: int, width: int, words) -> bool:
        """``len(words)`` consecutive ``width``-byte stores from ``addr``
        by ``block``, each word cut to its low ``width`` bytes, as one
        queue entry: what :meth:`store` of each word at ``addr``,
        ``addr + width``, … queues.  ``False``, and nothing queued, when
        the run leaves the heap — then each store must fault on its
        own."""
        if not self.main.holds(addr, len(words) * width):
            return False
        self._queue(block).append(
            _QueuedStore(addr, width, _word_bytes(words, width)))
        return True

    def load(self, block: int, addr: int, width: int) -> int:
        """A device load from ``block``: each byte comes from the newest
        of the block's own queued stores that holds it, else from main
        memory.

        One reversed scan finds the newest overlapping store.  None:
        main memory.  One that covers the whole range: a slice of its
        bytes.  Only a partial overlap composes byte by byte.
        """
        queue = self._queues.get(block)
        if queue:
            end = addr + width
            for entry in reversed(queue):
                start = entry.addr
                if start < end and addr < start + len(entry.data):
                    if start <= addr and end <= start + len(entry.data):
                        return int.from_bytes(
                            entry.data[addr - start:end - start], "little")
                    return self._forward_bytes(queue, addr, width)
        return self.main.read(addr, width)

    def load_run(self, block: int, lo: int, count: int, width: int
                 ) -> Optional[List[int]]:
        """``count`` consecutive ``width``-byte loads from ``lo`` by
        ``block``, as one slice of the heap: what :meth:`load` returns
        at ``lo``, ``lo + width``, ….  ``None`` when the run leaves the
        heap or one of the block's queued stores overlaps it — then
        each load must fault or forward on its own."""
        queue = self._queues.get(block)
        if queue:
            hi = lo + count * width
            for entry in queue:
                if entry.addr < hi and lo < entry.addr + len(entry.data):
                    return None
        return self.main.read_run(lo, count, width)

    def _forward_bytes(self, queue: Deque[_QueuedStore], addr: int, width: int) -> int:
        """``load`` when no one queued store covers the range: byte by
        byte, the newest store holding it or main memory."""
        value = self.main.read(addr, width)
        for i in range(width):
            byte_addr = addr + i
            for entry in reversed(queue):
                if entry.addr <= byte_addr < entry.addr + len(entry.data):
                    byte = entry.data[byte_addr - entry.addr]
                    value = value & ~(0xFF << (8 * i)) | byte << (8 * i)
                    break
        return value

    def atomic(self, block: int, addr: int, width: int, operation) -> int:
        """An atomic RMW at the coherence point.

        Queued stores to the target address (from any block) drain first,
        then ``operation(old) -> new`` runs on main memory.  Returns the
        old value.
        """
        for queue_block in self._blocks_storing(addr, addr + width):
            self._drain_address(queue_block, addr, width)
        old = self.main.read(addr, width)
        new = operation(old)
        if new is not None:
            self.main.write(addr, width, new)
        return old

    # ------------------------------------------------------------------
    # Draining (visibility)
    # ------------------------------------------------------------------
    def _commit(self, addr: int, data) -> None:
        """Make ``data`` visible at ``addr``: one slice of the heap (its
        bounds were checked when it was queued)."""
        offset = addr - self.main.base
        self.main.data[offset:offset + len(data)] = data

    def _drain_lanes(self, block: int, queue: Deque[_QueuedStore], index: int,
                     first: int, stop: int) -> None:
        """Commit lanes ``[first, stop)`` of ``queue[index]`` and split
        them out of its run: what is left before and after them stays
        queued where the run was."""
        entry = queue[index]
        data = entry.data
        lo, hi = first * entry.width, stop * entry.width
        self._commit(entry.addr + lo, data[lo:hi])
        if hi == len(data):
            if lo:
                del data[lo:]
            else:
                del queue[index]
                if not queue:
                    self._drop(block)
        elif lo:
            queue.insert(index + 1, _QueuedStore(entry.addr + hi, entry.width,
                                                 data[hi:]))
            del data[lo:]
        else:
            del data[:hi]
            entry.addr += hi

    def _blocks_storing(self, lo: int, hi: int) -> List[int]:
        """Blocks with a queued store overlapping ``[lo, hi)``, in
        first-store order: the only queues a drain of that range
        changes."""
        return sorted(
            (block for block, queue in self._queues.items()
             if any(entry.addr < hi and lo < entry.addr + len(entry.data)
                    for entry in queue)),
            key=self._store_rank.__getitem__)

    def _drain_address(self, block: int, addr: int, width: int) -> None:
        """Drain all queued stores of ``block`` overlapping an address
        range, in per-address order; on strong architectures this drains
        the whole FIFO prefix to preserve total store order."""
        queue = self._queues.get(block)
        if not queue:
            return
        end = addr + width
        if self.arch.relaxed_store_drain:
            self._drain_closure(block, queue, addr, end)
            return
        # The FIFO prefix up to the last lane overlapping the range.
        index = len(queue)
        for entry in reversed(queue):
            index -= 1
            if entry.addr < end and addr < entry.addr + len(entry.data):
                break
        else:
            return
        for _ in range(index):
            head = queue.popleft()
            self._commit(head.addr, head.data)
        self._drain_lanes(block, queue, 0, 0, queue[0].lanes_over(addr, end).stop)

    def _drain_closure(self, block: int, queue: Deque[_QueuedStore],
                       lo: int, hi: int) -> None:
        """The relaxed ``_drain_address``: drain the overlap *closure*
        of ``[lo, hi)``, lane by lane, committing in queue order.  A
        lane overlapping the probed range may itself overlap other
        queued lanes on different bytes, and committing any subset out
        of order would let an older store later clobber a newer one
        (per-location coherence).  Membership needs a fixpoint because
        an older lane can overlap a range contributed by a newer
        closure member."""
        members: Dict[int, set] = {}
        ranges = [(lo, hi)]
        while ranges:
            lo, hi = ranges.pop()
            for index, entry in enumerate(queue):
                if entry.addr < hi and lo < entry.addr + len(entry.data):
                    lanes = members.setdefault(index, set())
                    for lane in entry.lanes_over(lo, hi):
                        if lane not in lanes:
                            lanes.add(lane)
                            start = entry.addr + lane * entry.width
                            ranges.append((start, start + entry.width))
        if not members:
            return
        kept: Deque[_QueuedStore] = deque()
        for index, entry in enumerate(queue):
            lanes = members.get(index)
            if lanes is None:
                kept.append(entry)
                continue
            # The entry's spans of member and of kept lanes, in order.
            width, data = entry.width, entry.data
            span = 0
            for lane in range(1, len(data) // width + 1):
                if lane * width == len(data) or (lane in lanes) != (span in lanes):
                    piece = data[span * width:lane * width]
                    if span in lanes:
                        self._commit(entry.addr + span * width, piece)
                    else:
                        kept.append(_QueuedStore(entry.addr + span * width,
                                                 width, piece))
                    span = lane
        if kept:
            self._queues[block] = kept
        else:
            self._drop(block)

    def _eligible_lanes(self, queue: Deque[_QueuedStore]) -> List[Tuple[int, int]]:
        """``(index, lane)`` of every queued lane no older queued lane
        overlaps (per-location coherence), in queue order: the lanes a
        relaxed drain may pick."""
        eligible = []
        older: List[_QueuedStore] = []
        for index, entry in enumerate(queue):
            blocked = set()
            for prior in older:
                if prior.addr < entry.addr + len(entry.data) and \
                        entry.addr < prior.addr + len(prior.data):
                    blocked.update(entry.lanes_over(
                        prior.addr, prior.addr + len(prior.data)))
            eligible.extend((index, lane)
                            for lane in range(len(entry.data) // entry.width)
                            if lane not in blocked)
            older.append(entry)
        return eligible

    def drain_one(self, block: int, rng: Optional[random.Random] = None) -> bool:
        """Drain one store of ``block``'s queue; returns False if empty.

        Weak architectures may pick any lane whose address has no older
        queued store (per-location coherence); strong ones drain the
        FIFO head's first lane.
        """
        queue = self._queues.get(block)
        if not queue:
            return False
        index = lane = 0
        if self.arch.relaxed_store_drain and rng is not None:
            index, lane = rng.choice(self._eligible_lanes(queue))
        self._drain_lanes(block, queue, index, lane, lane + 1)
        return True

    def drain_heads(self, num_blocks: int) -> None:
        """Drain the first lane of the FIFO head of every pending queue
        of the blocks below ``num_blocks``, in ascending block order:
        the steady background drain the fair schedulers apply between
        warp steps."""
        blocks = self._blocks
        if not blocks:
            return
        queues = self._queues
        main = self.main.data
        base = self.main.base
        emptied = False
        for block in blocks:
            if block >= num_blocks:
                break
            queue = queues[block]
            head = queue[0]
            data = head.data
            width = head.width
            offset = head.addr - base
            if len(data) == width:
                main[offset:offset + width] = data
                queue.popleft()
                if not queue:
                    del queues[block]
                    emptied = True
            else:
                main[offset:offset + width] = data[:width]
                del data[:width]
                head.addr += width
        if emptied:
            self._blocks = [block for block in blocks if block in queues]

    def drain_block(self, block: int) -> None:
        """Drain a block's whole queue in order (its own ``membar.gl``),
        a run at a time."""
        queue = self._queues.get(block)
        if queue:
            self._drop(block)
            for entry in queue:
                self._commit(entry.addr, entry.data)

    def drain_all(self) -> None:
        """A global fence by anyone drains every queue (see module doc)."""
        for block in sorted(self._queues, key=self._store_rank.__getitem__):
            for entry in self._queues[block]:
                self._commit(entry.addr, entry.data)
        self._queues.clear()
        self._blocks.clear()

    def pending_stores(self) -> int:
        """Queued stores, counted in lanes."""
        return sum(len(entry.data) // entry.width
                   for queue in self._queues.values() for entry in queue)

    # ------------------------------------------------------------------
    # Snapshot/restore (used to run a kernel twice on identical state,
    # e.g. the native-vs-instrumented comparison of Figure 10)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Capture the drained memory image."""
        self.drain_all()
        return bytes(self.main.data)

    def restore(self, image: bytes) -> None:
        """Restore a previously captured image (queues are dropped);
        memory allocated since the snapshot reads zero."""
        self._queues.clear()
        self._blocks.clear()
        self._store_rank.clear()
        data = self.main.data
        data[:] = image + bytes(len(data) - len(image))

    # ------------------------------------------------------------------
    # Host accesses (cudaMemcpy-style; always coherent)
    # ------------------------------------------------------------------
    def host_read(self, addr: int, width: int) -> int:
        self.drain_all()
        return self.main.read(addr, width)

    def host_write(self, addr: int, width: int, value: int) -> None:
        self.drain_all()
        self.main.write(addr, width, value)

    def host_write_array(self, addr: int, values, width: int = 4) -> None:
        self.drain_all()
        self.main.write_words(addr, values, width)

    def host_read_array(self, addr: int, count: int, width: int = 4) -> List[int]:
        self.drain_all()
        return self.main.read_words(addr, count, width)


class SharedMemory:
    """Per-block shared memory: strongly ordered, block-private (§2).

    Each block's extent is the ``size`` bytes its kernel declares.  The
    ``.local`` space (``size=None``, keyed by thread, not by block) has
    no declarations, so its extent grows to cover each store instead.
    """

    def __init__(self, size: Optional[int] = None) -> None:
        self.size = size
        self._blocks: Dict[int, ByteStore] = {}

    def _extent(self, block: int) -> ByteStore:
        store = self._blocks.get(block)
        if store is None:
            store = self._blocks[block] = ByteStore(0, self.size or 0)
        return store

    def store(self, block: int, addr: int, width: int, value: int) -> None:
        store = self._extent(block)
        if self.size is None and addr + width <= LOCAL_BYTES_PER_THREAD:
            store.grow(addr + width)
        store.write(addr, width, value)

    def load(self, block: int, addr: int, width: int) -> int:
        return self._extent(block).read(addr, width)

    def load_run(self, block: int, lo: int, count: int, width: int
                 ) -> Optional[List[int]]:
        """``count`` consecutive ``width``-byte loads from ``lo`` as one
        slice; ``None`` when the run leaves the block's extent."""
        return self._extent(block).read_run(lo, count, width)

    def store_run(self, block: int, addr: int, width: int, words) -> bool:
        """``len(words)`` consecutive ``width``-byte stores from ``addr``
        as one slice; ``False``, and nothing written, when the run
        leaves the block's extent."""
        store = self._extent(block)
        if not store.holds(addr, len(words) * width):
            return False
        store.write_words(addr, words, width)
        return True

    def atomic(self, block: int, addr: int, width: int, operation) -> int:
        store = self._extent(block)
        old = store.read(addr, width)
        new = operation(old)
        if new is not None:
            store.write(addr, width, new)
        return old
