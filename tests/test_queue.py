"""GPU-to-host queues: ring indices, stalls, ordering (§4.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QueueError
from repro.events import LogRecord, RECORD_BYTES, RecordKind
from repro.runtime import LogQueue, QueueSet


def record(warp=0, kind=RecordKind.LOAD):
    return LogRecord(kind=kind, warp=warp, active=frozenset({warp * 4}))


class TestLogQueue:
    def test_fifo_order(self):
        queue = LogQueue(capacity=4)
        for warp in range(3):
            queue.push(record(warp), seq=warp)
        assert [queue.pop().warp for _ in range(3)] == [0, 1, 2]
        assert queue.pop() is None

    def test_virtual_indices_are_monotonic(self):
        queue = LogQueue(capacity=2)
        for i in range(6):
            queue.push(record(i), seq=i)
            queue.pop()
        assert queue.write_head == 6
        assert queue.read_head == 6
        assert queue.commit_index == 6

    def test_full_detection(self):
        queue = LogQueue(capacity=2)
        queue.push(record(0))
        queue.push(record(1))
        assert queue.full()
        with pytest.raises(QueueError):
            queue.push(record(2))
        queue.pop()
        assert not queue.full()

    def test_capacity_must_be_positive(self):
        with pytest.raises(QueueError):
            LogQueue(capacity=0)

    def test_stats(self):
        queue = LogQueue(capacity=8)
        for i in range(5):
            queue.push(record(i))
        queue.pop_batch(3)
        assert queue.stats.pushed == 5
        assert queue.stats.max_depth == 5
        assert queue.stats.bytes_transferred == 5 * RECORD_BYTES
        assert queue.pending() == 2

    def test_head_seq(self):
        queue = LogQueue(capacity=4)
        assert queue.head_seq() is None
        queue.push(record(0), seq=42)
        assert queue.head_seq() == 42

    @given(st.lists(st.integers(0, 100), max_size=40))
    def test_ring_wraparound_preserves_fifo(self, warps):
        queue = LogQueue(capacity=4)
        popped = []
        for warp in warps:
            if queue.full():
                popped.append(queue.pop().warp)
            queue.push(record(warp))
        while True:
            item = queue.pop()
            if item is None:
                break
            popped.append(item.warp)
        assert popped == warps
        # Wraparound accounting: completed write-head revolutions.
        assert queue.stats.wraps == queue.write_head // queue.capacity

    def test_ring_wraparound_accounting(self):
        queue = LogQueue(capacity=4)
        assert queue.stats.wraps == 0
        for i in range(3):
            queue.push(record(i))
        assert queue.stats.wraps == 0  # ring not yet revisited
        for i in range(3, 10):
            if queue.full():
                queue.pop()
            queue.push(record(i))
        # 10 pushes through a 4-slot ring: the write head completed two
        # full revolutions (virtual indices 4 and 8).
        assert queue.write_head == 10
        assert queue.stats.wraps == 2
        assert queue.stats.wraps == queue.write_head // queue.capacity
        assert queue.stats.pushed == 10


class TestQueueSet:
    def _set(self, num_queues=2, capacity=4, on_full=None):
        return QueueSet(
            num_queues=num_queues,
            capacity=capacity,
            block_of_record=lambda r: r.warp,  # warp id stands in for block
            on_full=on_full,
        )

    def test_block_to_queue_mapping(self):
        queues = self._set(num_queues=2)
        queues.emit(record(0))
        queues.emit(record(1))
        queues.emit(record(2))
        assert queues.queues[0].pending() == 2  # blocks 0 and 2
        assert queues.queues[1].pending() == 1

    def test_full_queue_without_consumer_raises(self):
        queues = self._set(capacity=1)
        queues.emit(record(0))
        with pytest.raises(QueueError):
            queues.emit(record(0))

    def test_full_queue_stalls_and_drains(self):
        drained = []

        def on_full(queue_set, index):
            drained.append(index)
            queue_set.queues[index].pop()

        queues = self._set(capacity=1, on_full=on_full)
        queues.emit(record(0))
        stall = queues.emit(record(0))
        assert stall > 0
        assert drained == [0]
        assert queues.queues[0].stats.stalls == 1

    def test_drain_in_order_merges_by_commit_stamp(self):
        queues = self._set(num_queues=2)
        order = [0, 1, 1, 0, 1, 0]
        for block in order:
            queues.emit(record(block))
        drained = queues.drain_in_order()
        assert [r.warp for r in drained] == order

    def test_drain_round_robin_batches(self):
        queues = self._set(num_queues=2)
        for block in (0, 0, 1):
            queues.emit(record(block))
        drained = queues.drain_round_robin(batch=1)
        assert len(drained) == 2  # one from each queue
        assert queues.pending() == 1

    def test_totals(self):
        queues = self._set()
        for block in range(4):
            queues.emit(record(block))
        assert queues.total_pushed == 4
        assert queues.total_bytes == 4 * RECORD_BYTES
