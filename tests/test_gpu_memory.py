"""Device memory: byte store, store queues, and the weak-memory model."""

import random

import pytest

from repro.errors import SimulationError
from repro.gpu.memory import (
    ByteStore,
    GlobalMemory,
    KEPLER_K520,
    MAXWELL_TITANX,
    SharedMemory,
)


class TestByteStore:
    def test_little_endian_round_trip(self):
        store = ByteStore()
        store.write(0x100, 4, 0x12345678)
        assert store.read(0x100, 4) == 0x12345678
        assert store.read_byte(0x100) == 0x78
        assert store.read_byte(0x103) == 0x12

    def test_unwritten_reads_zero(self):
        assert ByteStore().read(0, 8) == 0

    def test_overlapping_writes(self):
        store = ByteStore()
        store.write(0, 4, 0xAABBCCDD)
        store.write(2, 2, 0x1122)
        assert store.read(0, 4) == 0x1122CCDD


class TestAllocation:
    def test_alignment(self):
        mem = GlobalMemory()
        a = mem.alloc(3, align=8)
        b = mem.alloc(5, align=8)
        assert a % 8 == 0 and b % 8 == 0
        assert b >= a + 3

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            GlobalMemory().alloc(0)

    def test_allocated_bytes_accumulate(self):
        mem = GlobalMemory()
        mem.alloc(100)
        mem.alloc(28)
        assert mem.allocated_bytes == 128


class TestStoreForwarding:
    def test_own_block_sees_queued_store(self):
        mem = GlobalMemory(MAXWELL_TITANX)
        mem.store(0, 0x10, 4, 99)
        assert mem.load(0, 0x10, 4) == 99  # forwarding
        assert mem.main.read(0x10, 4) == 0  # not yet drained

    def test_other_block_does_not_see_queued_store(self):
        mem = GlobalMemory(MAXWELL_TITANX)
        mem.store(0, 0x10, 4, 99)
        assert mem.load(1, 0x10, 4) == 0

    def test_latest_queued_store_wins(self):
        mem = GlobalMemory(MAXWELL_TITANX)
        mem.store(0, 0x10, 4, 1)
        mem.store(0, 0x10, 4, 2)
        assert mem.load(0, 0x10, 4) == 2

    def test_byte_level_forwarding_composes(self):
        mem = GlobalMemory(MAXWELL_TITANX)
        mem.main.write(0x10, 4, 0x44332211)
        mem.store(0, 0x12, 1, 0xAA)
        assert mem.load(0, 0x10, 4) == 0x44AA2211


class TestDraining:
    def test_strong_arch_drains_fifo(self):
        mem = GlobalMemory(MAXWELL_TITANX)
        mem.store(0, 0x10, 4, 1)
        mem.store(0, 0x20, 4, 2)
        mem.drain_one(0)
        assert mem.main.read(0x10, 4) == 1
        assert mem.main.read(0x20, 4) == 0

    def test_weak_arch_can_reorder_independent_stores(self):
        rng = random.Random(0)
        reordered = 0
        for _ in range(100):
            mem = GlobalMemory(KEPLER_K520)
            mem.store(0, 0x10, 4, 1)
            mem.store(0, 0x20, 4, 2)
            mem.drain_one(0, rng)
            if mem.main.read(0x20, 4) == 2:
                reordered += 1
        assert 0 < reordered < 100

    def test_weak_arch_preserves_per_address_order(self):
        rng = random.Random(0)
        for _ in range(50):
            mem = GlobalMemory(KEPLER_K520)
            mem.store(0, 0x10, 4, 1)
            mem.store(0, 0x10, 4, 2)
            mem.drain_one(0, rng)
            assert mem.main.read(0x10, 4) == 1  # older store first

    def test_drain_all_commits_everything(self):
        mem = GlobalMemory(KEPLER_K520)
        mem.store(0, 0x10, 4, 1)
        mem.store(1, 0x20, 4, 2)
        mem.drain_all()
        assert mem.pending_stores() == 0
        assert mem.main.read(0x10, 4) == 1
        assert mem.main.read(0x20, 4) == 2

    def test_drain_one_on_empty_queue(self):
        assert not GlobalMemory().drain_one(0)


class TestPendingQueues:
    """``_queues`` holds pending work only, and pruning it moves no
    commit: the order blocks are visited in is part of the schedule."""

    @pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
    @pytest.mark.parametrize(
        "drain",
        [
            lambda mem: mem.drain_all(),
            lambda mem: [mem.drain_block(block) for block in (0, 3, 5)],
            lambda mem: [mem._drain_address(block, 0x10, 8) for block in (0, 3, 5)],
            lambda mem: [mem.drain_heads(6) for _ in range(2)],
            lambda mem: mem.atomic(1, 0x10, 8, lambda old: None),
        ],
        ids=["drain_all", "drain_block", "_drain_address", "drain_heads", "atomic"],
    )
    def test_no_empty_queue_is_kept(self, arch, drain):
        mem = GlobalMemory(arch)
        for block in (5, 0, 3):
            mem.store(block, 0x10, 4, block)
            mem.store(block, 0x14, 4, block)
        drain(mem)
        assert mem._queues == {}
        assert mem.pending_stores() == 0

    def test_partial_drains_keep_only_what_is_pending(self):
        mem = GlobalMemory()
        mem.store(0, 0x10, 4, 1)
        mem.store(0, 0x20, 4, 2)
        mem.store(1, 0x30, 4, 3)
        mem.drain_heads(2)
        assert {block: len(q) for block, q in mem._queues.items()} == {0: 1}
        mem._drain_address(0, 0x40, 4)  # no overlap: nothing to do
        assert mem.pending_stores() == 1

    def test_drain_heads_commits_in_ascending_block_order(self):
        mem = GlobalMemory()
        reference = GlobalMemory()
        for target in (mem, reference):
            for block in (5, 0, 3):
                target.store(block, 0x10, 4, 100 + block)
                target.store(block, 0x20 + 4 * block, 4, block)
        mem.drain_heads(6)
        for block in range(6):  # the sweep drain_heads replaced
            reference.drain_one(block)
        assert mem.main.read(0x10, 4) == 105  # last writer: block 5
        assert mem.main._bytes == reference.main._bytes
        assert mem.pending_stores() == reference.pending_stores() == 3

    def test_drain_heads_leaves_blocks_beyond_the_grid(self):
        mem = GlobalMemory()
        mem.store(1, 0x10, 4, 1)
        mem.store(7, 0x10, 4, 7)  # left by an earlier, larger launch
        mem.drain_heads(4)
        assert mem.main.read(0x10, 4) == 1
        assert list(mem._queues) == [7]
        assert mem.load(7, 0x10, 4) == 7

    def test_first_store_order_survives_pruning(self):
        # Block 5 stored first, so drain_all and atomic visit it first
        # and block 0's store is the one that survives — also after
        # block 5's queue was emptied, dropped and created again.
        for drain in (
            lambda mem: mem.drain_all(),
            lambda mem: mem.atomic(2, 0x10, 4, lambda old: None),
        ):
            mem = GlobalMemory()
            mem.store(5, 0x20, 4, 1)
            mem.store(0, 0x10, 4, 100)
            mem.drain_block(5)
            mem.store(5, 0x10, 4, 105)
            drain(mem)
            assert mem.main.read(0x10, 4) == 100

    def test_restore_forgets_the_first_store_order(self):
        mem = GlobalMemory()
        image = mem.snapshot()
        mem.store(5, 0x10, 4, 105)
        mem.restore(image)
        mem.store(0, 0x10, 4, 100)
        mem.store(5, 0x10, 4, 105)
        mem.drain_all()
        assert mem.main.read(0x10, 4) == 105


class TestAtomics:
    def test_atomic_sees_queued_stores_to_its_address(self):
        mem = GlobalMemory(MAXWELL_TITANX)
        mem.store(0, 0x10, 4, 5)
        old = mem.atomic(1, 0x10, 4, lambda v: v + 1)
        assert old == 5
        assert mem.main.read(0x10, 4) == 6

    def test_atomic_none_result_leaves_memory(self):
        mem = GlobalMemory()
        mem.main.write(0x10, 4, 3)
        old = mem.atomic(0, 0x10, 4, lambda v: None)  # failed CAS
        assert old == 3
        assert mem.main.read(0x10, 4) == 3


class TestSnapshotRestore:
    def test_round_trip(self):
        mem = GlobalMemory()
        mem.main.write(0x10, 4, 7)
        image = mem.snapshot()
        mem.store(0, 0x10, 4, 99)
        mem.drain_all()
        mem.restore(image)
        assert mem.main.read(0x10, 4) == 7
        assert mem.pending_stores() == 0


class TestSharedMemory:
    def test_blocks_are_isolated(self):
        shared = SharedMemory()
        shared.store(0, 0x0, 4, 11)
        assert shared.load(0, 0x0, 4) == 11
        assert shared.load(1, 0x0, 4) == 0

    def test_shared_atomic(self):
        shared = SharedMemory()
        old = shared.atomic(0, 0x0, 4, lambda v: v + 3)
        assert old == 0
        assert shared.load(0, 0x0, 4) == 3
