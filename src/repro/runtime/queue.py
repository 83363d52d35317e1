"""GPU-to-host event queues (paper §4.2, Figure 6).

Each queue is a ring of fixed-size records tracked by three virtual
(monotonically increasing) indices:

* ``write_head`` — next entry available for writing by the GPU logging
  code;
* ``commit_index`` — entries made visible to the host;
* ``read_head`` — entries consumed by the host race detector.

Virtual indices map to physical slots modulo the queue size; the queue is
full when the write head is a full queue-size ahead of the read head, in
which case the producing warp stalls until the host drains.

BARRACUDA allocates multiple queues (~1.1–1.5 per SM) and maps each
thread block to one queue, which lets the host process shared-memory
traffic of a block without locking.  :class:`QueueSet` reproduces that
organization and doubles as the :class:`repro.gpu.interpreter.EventSink`
the instrumented kernels log into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import QueueError
from ..faults import NULL_FAULTS, resolve_faults
from ..faults import sites as fault_sites
from ..gpu.interpreter import EventSink
from ..events import RECORD_BYTES, LogRecord

#: Default queue capacity in records.  The paper reserves ~50% of GPU
#: memory for queues; scaled to simulation size.
DEFAULT_CAPACITY = 4096

#: Modeled stall cycles per record the host must drain to free space.
STALL_CYCLES_PER_RECORD = 2


@dataclass
class QueueStats:
    """Occupancy and throughput accounting for one queue."""

    pushed: int = 0
    max_depth: int = 0
    stalls: int = 0
    stall_cycles: int = 0
    #: Completed revolutions of the write head around the ring; always
    #: equal to ``write_head // capacity``.
    wraps: int = 0
    #: Occupancy sampling: depth is sampled on *both* push and pop, so
    #: the mean is not skewed toward producer bursts (a producer-only
    #: sample never sees the queue draining).
    depth_samples: int = 0
    depth_total: int = 0

    @property
    def bytes_transferred(self) -> int:
        return self.pushed * RECORD_BYTES

    @property
    def mean_occupancy(self) -> float:
        """Mean queue depth across push *and* pop samples."""
        if self.depth_samples == 0:
            return 0.0
        return self.depth_total / self.depth_samples

    def sample_depth(self, depth: int) -> None:
        self.depth_samples += 1
        self.depth_total += depth
        if depth > self.max_depth:
            self.max_depth = depth


class LogQueue:
    """One lock-free-style ring of fixed-size records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise QueueError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._slots: List[Optional[LogRecord]] = [None] * capacity
        self._seqs: List[int] = [0] * capacity
        self.write_head = 0
        self.commit_index = 0
        self.read_head = 0
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    # GPU side
    # ------------------------------------------------------------------
    def full(self) -> bool:
        return self.write_head - self.read_head >= self.capacity

    def push(self, record: LogRecord, seq: int = 0) -> None:
        """Reserve a slot, fill it, and bump the commit index.

        The real device does these as three separate steps performed
        cooperatively by the warp (§4.2); in-process they collapse into
        one call, but the three indices keep the same meaning.  ``seq``
        is the device-wide commit stamp used for deterministic cross-
        queue ordering on the host.
        """
        if self.full():
            raise QueueError("push on full queue; drain first")
        slot = self.write_head % self.capacity
        self._slots[slot] = record
        self._seqs[slot] = seq
        self.write_head += 1
        self.commit_index = self.write_head
        self.stats.pushed += 1
        if self.write_head % self.capacity == 0:
            self.stats.wraps += 1
        self.stats.sample_depth(self.write_head - self.read_head)

    def push_uncommitted(self, record: LogRecord, seq: int = 0) -> None:
        """Write a slot and advance the write head *without* committing.

        Models the §4.2 hazard of a producer that dies between the slot
        write and the commit: the record is invisible to the host until a
        later push re-commits past it (``push`` sets ``commit_index`` to
        the write head, covering the gap).  A trailing uncommitted record
        is simply lost.  Only the fault-injection layer calls this.
        """
        if self.full():
            raise QueueError("push on full queue; drain first")
        slot = self.write_head % self.capacity
        self._slots[slot] = record
        self._seqs[slot] = seq
        self.write_head += 1
        self.stats.pushed += 1
        if self.write_head % self.capacity == 0:
            self.stats.wraps += 1
        self.stats.sample_depth(self.write_head - self.read_head)

    def head_seq(self) -> Optional[int]:
        """Commit stamp of the oldest unread record, or None if drained."""
        if self.read_head >= self.commit_index:
            return None
        return self._seqs[self.read_head % self.capacity]

    # ------------------------------------------------------------------
    # Host side
    # ------------------------------------------------------------------
    def pending(self) -> int:
        return self.commit_index - self.read_head

    def pop(self) -> Optional[LogRecord]:
        """Consume the oldest committed record, or None if drained."""
        if self.read_head >= self.commit_index:
            return None
        slot = self.read_head % self.capacity
        record = self._slots[slot]
        self._slots[slot] = None
        self.read_head += 1
        self.stats.sample_depth(self.write_head - self.read_head)
        return record


class QueueSet(EventSink):
    """All queues of one launch, with the block-to-queue mapping.

    ``on_full`` is invoked when a producer finds its queue full — the
    in-process equivalent of the GPU warp waiting for the CPU to drain
    entries.  It must consume at least one record or the push fails.
    """

    def __init__(
        self,
        num_queues: int = 4,
        capacity: int = DEFAULT_CAPACITY,
        block_of_record: Optional[Callable[[LogRecord], int]] = None,
        on_full: Optional[Callable[["QueueSet", int], None]] = None,
        faults=NULL_FAULTS,
    ) -> None:
        if num_queues < 1:
            raise QueueError(f"need at least one queue, got {num_queues}")
        self.queues = [LogQueue(capacity) for _ in range(num_queues)]
        self._block_of_record = block_of_record
        self.on_full = on_full
        self._seq = 0
        # Pre-resolved fault injector: None unless a plan is active, so
        # the per-record path pays one is-None check (NULL_FAULTS pattern).
        self._faults = resolve_faults(faults)

    def queue_for_block(self, block: int) -> int:
        """Each thread block logs to exactly one queue (§4.2)."""
        return block % len(self.queues)

    def _block_of(self, record: LogRecord) -> int:
        if self._block_of_record is not None:
            return self._block_of_record(record)
        # Without a resolver, fall back to the record's warp/block id
        # (exact for BARRIER records; an arbitrary-but-stable mapping
        # otherwise — fine for tests that don't care about block
        # affinity).
        return record.warp

    def _make_room(self, queue: LogQueue, queue_index: int) -> int:
        """Drain a full queue via ``on_full``; returns the stall cycles."""
        stall = 0
        while queue.full():
            if self.on_full is None:
                raise QueueError(
                    f"queue {queue_index} full ({queue.capacity} records) and "
                    "no host consumer attached"
                )
            before = queue.read_head
            self.on_full(self, queue_index)
            drained = queue.read_head - before
            if drained <= 0 and queue.full():
                raise QueueError(
                    f"host consumer failed to drain full queue {queue_index}"
                )
            stall += max(drained, 1) * STALL_CYCLES_PER_RECORD
            queue.stats.stalls += 1
        return stall

    def emit(self, record: LogRecord) -> int:
        if self._faults is not None:
            fault = self._faults.check(fault_sites.QUEUE_PUSH, RECORD_BYTES)
            if fault is not None:
                return self._emit_faulty(record, fault)
        queue_index = self.queue_for_block(self._block_of(record))
        queue = self.queues[queue_index]
        stall = 0
        if queue.full():
            stall = self._make_room(queue, queue_index)
        queue.push(record, seq=self._seq)
        self._seq += 1
        queue.stats.stall_cycles += stall
        return stall

    # ------------------------------------------------------------------
    # Fault-injected paths (repro.faults; never taken under NULL_FAULTS)
    # ------------------------------------------------------------------
    def _emit_faulty(self, record: LogRecord, fault) -> int:
        queue_index = self.queue_for_block(self._block_of(record))
        queue = self.queues[queue_index]
        stall = self._make_room(queue, queue_index) if queue.full() else 0
        if fault.kind == fault_sites.RING_FULL:
            # Forced producer stall: behave as though the write head had
            # caught the read head — drain through ``on_full`` and charge
            # the stall — even though space remains.  Lossless by design.
            if self.on_full is not None:
                self.on_full(self, queue_index)
            stall += int(fault.arg("stall_cycles", STALL_CYCLES_PER_RECORD))
            queue.stats.stalls += 1
            queue.push(record, seq=self._seq)
            self._seq += 1
            queue.stats.stall_cycles += stall
            return stall
        # drop-commit: the record is written and the write head advances,
        # but the commit index is withheld (a lost §4.2 commit).  The next
        # successful push re-commits past it; a trailing drop is lost.
        queue.push_uncommitted(record, seq=self._seq)
        self._seq += 1
        queue.stats.stall_cycles += stall
        return stall

    # ------------------------------------------------------------------
    # Host-side draining
    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(q.pending() for q in self.queues)

    def drain_in_order(self, limit: Optional[int] = None) -> List[LogRecord]:
        """Drain across queues in device commit order (deterministic)."""
        records: List[LogRecord] = []
        while limit is None or len(records) < limit:
            best = None
            best_seq = None
            for queue in self.queues:
                seq = queue.head_seq()
                if seq is not None and (best_seq is None or seq < best_seq):
                    best, best_seq = queue, seq
            if best is None:
                break
            records.append(best.pop())
        return records

    @property
    def total_pushed(self) -> int:
        return sum(q.stats.pushed for q in self.queues)

    @property
    def total_bytes(self) -> int:
        return sum(q.stats.bytes_transferred for q in self.queues)
