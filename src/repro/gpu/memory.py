"""Device memory with a configurable weak-consistency model.

The paper's Figure 4 litmus tests show that on a Kepler K520 a
``membar.cta`` in each thread of a message-passing pair is *not* enough
to prevent non-SC outcomes across thread blocks, while a ``membar.gl`` in
either thread is; a Maxwell Titan X showed no weak outcomes at all.

We model the mechanism with per-block store queues in front of a single
coherence point (main memory):

* a global store enters its block's queue; threads of the same block
  forward from the queue (intra-block program order is always visible);
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
from dataclasses import dataclass
from typing import Dict, List, Optional

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
        mask = (1 << (8 * width)) - 1
        words = array(_WORD_CODES[width], [int(value) & mask for value in values])
        if _BIG_ENDIAN:
            words.byteswap()
        offset = self.offset(addr, len(words) * width)
        self.data[offset:offset + len(words) * width] = words.tobytes()

    def read_run(self, addr: int, count: int, width: int) -> Optional[List[int]]:
        """:meth:`read_words`, or ``None`` when the run leaves the
        extent."""
        offset = addr - self.base
        if offset < 0 or offset + count * width > len(self.data):
            return None
        return self.read_words(addr, count, width)


@dataclass
class _QueuedStore:
    """One store waiting in a block's queue."""

    addr: int
    width: int
    value: int


class GlobalMemory:
    """Global memory: main store + per-block store queues."""

    def __init__(self, arch: ArchProfile = MAXWELL_TITANX) -> None:
        self.arch = arch
        #: The heap: ``alloc`` bumps its end, so it is one extent.
        self.main = ByteStore(GLOBAL_HEAP_BASE)
        #: Non-empty store queues only: a drained queue is dropped, so
        #: every drain costs what is pending, not every block that ever
        #: stored.
        self._queues: Dict[int, List[_QueuedStore]] = {}
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
    def store(self, block: int, addr: int, width: int, value: int) -> None:
        """A device store from ``block``: enters the block's queue (an
        illegal address faults now, not when the store drains)."""
        self.main.offset(addr, width)
        queue = self._queues.get(block)
        if queue is None:
            queue = self._queues[block] = []
            self._store_rank.setdefault(block, len(self._store_rank))
        queue.append(_QueuedStore(addr=addr, width=width, value=value))

    def load(self, block: int, addr: int, width: int) -> int:
        """A device load from ``block``: each byte comes from the newest
        of the block's own queued stores that holds it, else from main
        memory.

        One reversed scan finds the newest overlapping store.  None:
        main memory.  One that covers the whole range: a shift and a
        mask of it.  Only a partial overlap composes byte by byte.
        """
        queue = self._queues.get(block)
        if queue:
            end = addr + width
            for entry in reversed(queue):
                if entry.addr < end and addr < entry.addr + entry.width:
                    if entry.addr <= addr and end <= entry.addr + entry.width:
                        return (entry.value >> (8 * (addr - entry.addr))) & (
                            (1 << (8 * width)) - 1)
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
                if entry.addr < hi and lo < entry.addr + entry.width:
                    return None
        return self.main.read_run(lo, count, width)

    def _forward_bytes(self, queue: List[_QueuedStore], addr: int, width: int) -> int:
        """``load`` when no one queued store covers the range: byte by
        byte, the newest store holding it or main memory."""
        value = self.main.read(addr, width)
        for i in range(width):
            byte_addr = addr + i
            for entry in reversed(queue):
                if entry.addr <= byte_addr < entry.addr + entry.width:
                    byte = (entry.value >> (8 * (byte_addr - entry.addr))) & 0xFF
                    value = value & ~(0xFF << (8 * i)) | byte << (8 * i)
                    break
        return value

    def atomic(self, block: int, addr: int, width: int, operation) -> int:
        """An atomic RMW at the coherence point.

        Queued stores to the target address (from any block) drain first,
        then ``operation(old) -> new`` runs on main memory.  Returns the
        old value.
        """
        for queue_block in self._pending_blocks():
            self._drain_address(queue_block, addr, width)
        old = self.main.read(addr, width)
        new = operation(old)
        if new is not None:
            self.main.write(addr, width, new)
        return old

    # ------------------------------------------------------------------
    # Draining (visibility)
    # ------------------------------------------------------------------
    def _commit(self, entry: _QueuedStore) -> None:
        self.main.write(entry.addr, entry.width, entry.value)

    def _pending_blocks(self) -> List[int]:
        """Blocks with queued stores, in first-store order."""
        return sorted(self._queues, key=self._store_rank.__getitem__)

    def _drain_address(self, block: int, addr: int, width: int) -> None:
        """Drain all queued stores of ``block`` overlapping an address
        range, in per-address order; on strong architectures this drains
        the whole FIFO prefix to preserve total store order."""
        queue = self._queues.get(block)
        if not queue:
            return
        if self.arch.relaxed_store_drain:
            # Drain the overlap *closure*, committing in queue order: a
            # store overlapping the probed range may itself overlap other
            # queued stores on different bytes, and committing any subset
            # out of order would let an older store later clobber a newer
            # one (per-location coherence).  Membership needs a fixpoint
            # because an older entry can overlap a range contributed by a
            # newer closure member.
            ranges = [(addr, addr + width)]
            members = set()
            changed = True
            while changed:
                changed = False
                for index, entry in enumerate(queue):
                    if index in members:
                        continue
                    if any(entry.addr < hi and lo < entry.addr + entry.width
                           for lo, hi in ranges):
                        members.add(index)
                        ranges.append((entry.addr, entry.addr + entry.width))
                        changed = True
            if not members:
                return
            for index in sorted(members):
                self._commit(queue[index])
            for index in sorted(members, reverse=True):
                del queue[index]
        else:
            overlapping = [
                e for e in queue if e.addr < addr + width and addr < e.addr + e.width
            ]
            if not overlapping:
                return
            last = max(queue.index(e) for e in overlapping)
            for entry in queue[: last + 1]:
                self._commit(entry)
            del queue[: last + 1]
        if not queue:
            del self._queues[block]

    def drain_one(self, block: int, rng: Optional[random.Random] = None) -> bool:
        """Drain one store of ``block``'s queue; returns False if empty.

        Weak architectures may pick any entry whose address has no older
        queued store (per-location coherence); strong ones drain the
        FIFO head.
        """
        queue = self._queues.get(block)
        if not queue:
            return False
        if self.arch.relaxed_store_drain and rng is not None:
            eligible = []
            seen_addrs = set()
            for entry in queue:
                key = (entry.addr, entry.width)
                overlap = any(
                    entry.addr < a + w and a < entry.addr + entry.width
                    for a, w in seen_addrs
                )
                if not overlap:
                    eligible.append(entry)
                seen_addrs.add(key)
            entry = rng.choice(eligible)
            queue.remove(entry)
        else:
            entry = queue.pop(0)
        if not queue:
            del self._queues[block]
        self._commit(entry)
        return True

    def drain_heads(self, num_blocks: int) -> None:
        """Drain the FIFO head of every pending queue of the blocks below
        ``num_blocks``, in ascending block order: the steady background
        drain the fair schedulers apply between warp steps."""
        if self._queues:
            for block in sorted(b for b in self._queues if b < num_blocks):
                self.drain_one(block)

    def drain_block(self, block: int) -> None:
        """Drain a block's whole queue in order (its own ``membar.gl``)."""
        for entry in self._queues.pop(block, ()):
            self._commit(entry)

    def drain_all(self) -> None:
        """A global fence by anyone drains every queue (see module doc)."""
        for block in self._pending_blocks():
            self.drain_block(block)

    def pending_stores(self) -> int:
        return sum(len(q) for q in self._queues.values())

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
    ``.local`` space (one instance per thread, ``size=None``) has no
    declarations, so its extent grows to cover each store instead.
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

    def atomic(self, block: int, addr: int, width: int, operation) -> int:
        store = self._extent(block)
        old = store.read(addr, width)
        new = operation(old)
        if new is not None:
            store.write(addr, width, new)
        return old
