"""Device memory: byte store, store queues, and the weak-memory model."""

import contextlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cudac import compile_cuda
from repro.errors import SimulationError
from repro.gpu import GpuDevice, ListSink
from repro.gpu.memory import (
    GLOBAL_HEAP_BASE,
    ByteStore,
    GlobalMemory,
    KEPLER_K520,
    MAXWELL_TITANX,
    SharedMemory,
)
from repro.instrument import Instrumenter
from repro.ptx import parse_ptx

import oracle
from test_warp_values import SAXPY

#: The first allocation of a fresh ``GlobalMemory``.
BASE = GLOBAL_HEAP_BASE


def _heap(arch=MAXWELL_TITANX, size=0x100):
    """A global memory whose heap is ``size`` allocated bytes at BASE."""
    mem = GlobalMemory(arch)
    assert mem.alloc(size) == BASE
    return mem


class TestByteStore:
    def test_little_endian_round_trip(self):
        store = ByteStore(0x100, 4)
        store.write(0x100, 4, 0x12345678)
        assert store.read(0x100, 4) == 0x12345678
        assert store.read(0x100, 1) == 0x78
        assert store.read(0x103, 1) == 0x12

    def test_unwritten_reads_zero(self):
        assert ByteStore(0, 8).read(0, 8) == 0

    def test_overlapping_writes(self):
        store = ByteStore(0, 4)
        store.write(0, 4, 0xAABBCCDD)
        store.write(2, 2, 0x1122)
        assert store.read(0, 4) == 0x1122CCDD

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("value", [-1, -2.0e9, 0x1_0000_0000_0000_0001, 3])
    def test_write_keeps_the_low_bytes_of_any_raw(self, width, value):
        # Float stores are not masked before they get here: a negative
        # raw keeps its two's-complement low bytes, as byte by byte.
        store = ByteStore(0, 8)
        store.write(0, width, int(value))
        assert store.read(0, width) == int(value) & ((1 << (8 * width)) - 1)

    @pytest.mark.parametrize("addr, width", [(-1, 1), (0, 9), (7, 2), (8, 1)])
    def test_access_outside_the_extent_is_illegal(self, addr, width):
        store = ByteStore(0, 8)
        for access in (lambda: store.read(addr, width),
                       lambda: store.write(addr, width, 0)):
            with pytest.raises(SimulationError, match="^illegal address"):
                access()


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

    def test_allocations_are_zeroed(self):
        mem = GlobalMemory()
        addr = mem.alloc(12)
        assert mem.host_read_array(addr, 3) == [0, 0, 0]

    def test_padding_between_allocations_stays_legal(self):
        # The check is on the heap extent, not per allocation: the
        # alignment gap between two buffers is inside it.
        mem = GlobalMemory()
        first = mem.alloc(3, align=8)
        second = mem.alloc(4, align=8)
        gap = first + 3
        assert gap < second
        mem.store(0, gap, 1, 0xAB)
        assert mem.load(0, gap, 1) == 0xAB
        mem.drain_all()
        assert mem.host_read(gap, 1) == 0xAB

    @pytest.mark.parametrize("addr", [0, BASE - 4, BASE + 8])
    def test_access_outside_the_heap_is_illegal(self, addr):
        mem = _heap(size=8)
        for access in (
            lambda: mem.store(0, addr, 4, 1),  # at the store, not the drain
            lambda: mem.load(0, addr, 4),
            lambda: mem.atomic(0, addr, 4, lambda old: old + 1),
            lambda: mem.host_read_array(addr, 1),
            lambda: mem.host_write_array(addr, [1]),
        ):
            with pytest.raises(SimulationError,
                               match=f"^illegal address {addr:#x}"):
                access()
        assert mem.pending_stores() == 0

    def test_a_load_straddling_the_heap_end_is_illegal(self):
        mem = _heap(size=8)
        mem.store(0, BASE + 4, 4, 1)  # forwarding covers only half of it
        with pytest.raises(SimulationError, match="illegal address"):
            mem.load(0, BASE + 6, 4)


class TestStoreForwarding:
    def test_own_block_sees_queued_store(self):
        mem = _heap(MAXWELL_TITANX)
        mem.store(0, BASE + 0x10, 4, 99)
        assert mem.load(0, BASE + 0x10, 4) == 99  # forwarding
        assert mem.main.read(BASE + 0x10, 4) == 0  # not yet drained

    def test_other_block_does_not_see_queued_store(self):
        mem = _heap(MAXWELL_TITANX)
        mem.store(0, BASE + 0x10, 4, 99)
        assert mem.load(1, BASE + 0x10, 4) == 0

    def test_latest_queued_store_wins(self):
        mem = _heap(MAXWELL_TITANX)
        mem.store(0, BASE + 0x10, 4, 1)
        mem.store(0, BASE + 0x10, 4, 2)
        assert mem.load(0, BASE + 0x10, 4) == 2

    def test_byte_level_forwarding_composes(self):
        mem = _heap(MAXWELL_TITANX)
        mem.main.write(BASE + 0x10, 4, 0x44332211)
        mem.store(0, BASE + 0x12, 1, 0xAA)
        assert mem.load(0, BASE + 0x10, 4) == 0x44AA2211


class TestDraining:
    def test_strong_arch_drains_fifo(self):
        mem = _heap(MAXWELL_TITANX)
        mem.store(0, BASE + 0x10, 4, 1)
        mem.store(0, BASE + 0x20, 4, 2)
        mem.drain_one(0)
        assert mem.main.read(BASE + 0x10, 4) == 1
        assert mem.main.read(BASE + 0x20, 4) == 0

    def test_weak_arch_can_reorder_independent_stores(self):
        rng = random.Random(0)
        reordered = 0
        for _ in range(100):
            mem = _heap(KEPLER_K520)
            mem.store(0, BASE + 0x10, 4, 1)
            mem.store(0, BASE + 0x20, 4, 2)
            mem.drain_one(0, rng)
            if mem.main.read(BASE + 0x20, 4) == 2:
                reordered += 1
        assert 0 < reordered < 100

    def test_weak_arch_preserves_per_address_order(self):
        rng = random.Random(0)
        for _ in range(50):
            mem = _heap(KEPLER_K520)
            mem.store(0, BASE + 0x10, 4, 1)
            mem.store(0, BASE + 0x10, 4, 2)
            mem.drain_one(0, rng)
            assert mem.main.read(BASE + 0x10, 4) == 1  # older store first

    def test_drain_all_commits_everything(self):
        mem = _heap(KEPLER_K520)
        mem.store(0, BASE + 0x10, 4, 1)
        mem.store(1, BASE + 0x20, 4, 2)
        mem.drain_all()
        assert mem.pending_stores() == 0
        assert mem.main.read(BASE + 0x10, 4) == 1
        assert mem.main.read(BASE + 0x20, 4) == 2

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
            lambda mem: [mem._drain_address(block, BASE + 0x10, 8)
                         for block in (0, 3, 5)],
            lambda mem: [mem.drain_heads(6) for _ in range(2)],
            lambda mem: mem.atomic(1, BASE + 0x10, 8, lambda old: None),
        ],
        ids=["drain_all", "drain_block", "_drain_address", "drain_heads", "atomic"],
    )
    def test_no_empty_queue_is_kept(self, arch, drain):
        mem = _heap(arch)
        for block in (5, 0, 3):
            mem.store(block, BASE + 0x10, 4, block)
            mem.store(block, BASE + 0x14, 4, block)
        drain(mem)
        assert mem._queues == {}
        assert mem.pending_stores() == 0

    def test_partial_drains_keep_only_what_is_pending(self):
        mem = _heap()
        mem.store(0, BASE + 0x10, 4, 1)
        mem.store(0, BASE + 0x20, 4, 2)
        mem.store(1, BASE + 0x30, 4, 3)
        mem.drain_heads(2)
        assert {block: len(q) for block, q in mem._queues.items()} == {0: 1}
        mem._drain_address(0, BASE + 0x40, 4)  # no overlap: nothing to do
        assert mem.pending_stores() == 1

    def test_drain_heads_commits_in_ascending_block_order(self):
        mem = _heap()
        reference = _heap()
        for target in (mem, reference):
            for block in (5, 0, 3):
                target.store(block, BASE + 0x10, 4, 100 + block)
                target.store(block, BASE + 0x20 + 4 * block, 4, block)
        mem.drain_heads(6)
        for block in range(6):  # the sweep drain_heads replaced
            reference.drain_one(block)
        assert mem.main.read(BASE + 0x10, 4) == 105  # last writer: block 5
        assert mem.main.read(BASE, 0x100) == reference.main.read(BASE, 0x100)
        assert mem.pending_stores() == reference.pending_stores() == 3

    def test_drain_heads_leaves_blocks_beyond_the_grid(self):
        mem = _heap()
        mem.store(1, BASE + 0x10, 4, 1)
        mem.store(7, BASE + 0x10, 4, 7)  # left by an earlier, larger launch
        mem.drain_heads(4)
        assert mem.main.read(BASE + 0x10, 4) == 1
        assert list(mem._queues) == [7]
        assert mem.load(7, BASE + 0x10, 4) == 7

    def test_first_store_order_survives_pruning(self):
        # Block 5 stored first, so drain_all and atomic visit it first
        # and block 0's store is the one that survives — also after
        # block 5's queue was emptied, dropped and created again.
        for drain in (
            lambda mem: mem.drain_all(),
            lambda mem: mem.atomic(2, BASE + 0x10, 4, lambda old: None),
        ):
            mem = _heap()
            mem.store(5, BASE + 0x20, 4, 1)
            mem.store(0, BASE + 0x10, 4, 100)
            mem.drain_block(5)
            mem.store(5, BASE + 0x10, 4, 105)
            drain(mem)
            assert mem.main.read(BASE + 0x10, 4) == 100

    def test_restore_forgets_the_first_store_order(self):
        mem = _heap()
        image = mem.snapshot()
        mem.store(5, BASE + 0x10, 4, 105)
        mem.restore(image)
        mem.store(0, BASE + 0x10, 4, 100)
        mem.store(5, BASE + 0x10, 4, 105)
        mem.drain_all()
        assert mem.main.read(BASE + 0x10, 4) == 105


class TestAtomics:
    def test_atomic_sees_queued_stores_to_its_address(self):
        mem = _heap(MAXWELL_TITANX)
        mem.store(0, BASE + 0x10, 4, 5)
        old = mem.atomic(1, BASE + 0x10, 4, lambda v: v + 1)
        assert old == 5
        assert mem.main.read(BASE + 0x10, 4) == 6

    @pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
    def test_atomic_drains_through_the_last_of_equal_queued_stores(self, arch):
        # The first and third stores are equal entries, yet the third is
        # the newest: the atomic must see it, and nothing older may
        # drain over the atomic's result afterwards.
        mem = _heap(arch)
        for value in (0, 1, 0):
            mem.store(0, BASE + 0x10, 4, value)
        assert mem.atomic(1, BASE + 0x10, 4, lambda v: v + 5) == 0
        assert mem.pending_stores() == 0
        mem.drain_all()
        assert mem.main.read(BASE + 0x10, 4) == 5

    def test_atomic_none_result_leaves_memory(self):
        mem = _heap()
        mem.main.write(BASE + 0x10, 4, 3)
        old = mem.atomic(0, BASE + 0x10, 4, lambda v: None)  # failed CAS
        assert old == 3
        assert mem.main.read(BASE + 0x10, 4) == 3


class TestSnapshotRestore:
    def test_round_trip(self):
        mem = _heap()
        mem.main.write(BASE + 0x10, 4, 7)
        image = mem.snapshot()
        mem.store(0, BASE + 0x10, 4, 99)
        mem.drain_all()
        mem.restore(image)
        assert mem.main.read(BASE + 0x10, 4) == 7
        assert mem.pending_stores() == 0

    def test_memory_allocated_after_the_snapshot_reads_zero(self):
        mem = _heap(size=8)
        image = mem.snapshot()
        later = mem.alloc(8)
        mem.host_write_array(later, [1, 2])
        mem.restore(image)
        assert mem.host_read_array(later, 2) == [0, 0]


class TestSharedMemory:
    def test_blocks_are_isolated(self):
        shared = SharedMemory(16)
        shared.store(0, 0x0, 4, 11)
        assert shared.load(0, 0x0, 4) == 11
        assert shared.load(1, 0x0, 4) == 0

    def test_shared_atomic(self):
        shared = SharedMemory(16)
        old = shared.atomic(0, 0x0, 4, lambda v: v + 3)
        assert old == 0
        assert shared.load(0, 0x0, 4) == 3

    def test_access_past_the_declared_bytes_is_illegal(self):
        shared = SharedMemory(16)
        with pytest.raises(SimulationError, match="^illegal address 0x10"):
            shared.store(0, 0x10, 4, 1)
        with pytest.raises(SimulationError, match="^illegal address 0xe"):
            shared.load(1, 0xE, 4)

    def test_local_space_grows_to_cover_each_store(self):
        local = SharedMemory()  # .local: no declarations
        local.store(0, 0x40, 4, 9)
        assert local.load(0, 0x40, 4) == 9
        assert local.load(0, 0x0, 4) == 0  # below the highest store
        with pytest.raises(SimulationError, match="illegal address"):
            local.load(0, 0x44, 4)  # above it: never stored
        with pytest.raises(SimulationError, match="illegal address"):
            local.store(0, 1 << 40, 4, 1)  # past CUDA's per-thread limit

    def test_load_run_is_one_load_per_word_inside_the_declaration(self):
        shared = SharedMemory(16)
        for word in range(4):
            shared.store(0, 4 * word, 4, 0xA0 + word)
        assert shared.load_run(0, 4, 3, 4) == [
            shared.load(0, addr, 4) for addr in (4, 8, 12)]
        assert shared.load_run(0, 2, 3, 2) == [0, 0xA1, 0]
        assert shared.load_run(1, 0, 4, 4) == [0, 0, 0, 0]
        assert shared.load_run(0, 8, 3, 4) is None  # the third word is past


# ----------------------------------------------------------------------
# Parity: the flat extent is the sparse per-byte store, inside the heap
# ----------------------------------------------------------------------
HEAP = 32
BLOCKS = 2
#: A device access sits at ``slot * width + skew``: mostly naturally
#: aligned (``skew`` 0), sometimes not.  The heap is small, so accesses
#: overlap often, and the slot wraps, so later allocations are reached.
SLOTS = st.integers(0, 47)
SKEWS = st.sampled_from([0] * 3 + [1, 2, 3])
WIDTHS = st.sampled_from([1, 2, 4, 8])
#: A raw as the engine hands it over: masked, a negative float-store
#: raw, or wider than its access.
RAWS = st.integers(min_value=-(1 << 63), max_value=(1 << 72))
_BLOCK = st.integers(0, BLOCKS - 1)
#: Argument strategies per step.
_ARGS = {
    "store": (_BLOCK, SLOTS, SKEWS, WIDTHS, RAWS),
    "load": (_BLOCK, SLOTS, SKEWS, WIDTHS),
    "atomic": (_BLOCK, SLOTS, SKEWS, WIDTHS, st.one_of(st.none(), RAWS)),
    "alloc": (st.integers(1, 24), st.sampled_from([1, 4, 8])),
    "drain_one": (_BLOCK, st.integers(0, 3)),
    "drain_heads": (st.integers(0, BLOCKS),),
    "drain_all": (),
    "snapshot": (),
    "restore": (),
    "host_write": (SLOTS, WIDTHS, st.lists(RAWS, min_size=1, max_size=4)),
    "host_read": (SLOTS, WIDTHS, st.integers(1, 4)),
    #: A warp's run of ``count`` consecutive words, from anywhere
    #: between one word below the heap and one word past its end.
    "load_run": (_BLOCK, SLOTS, SKEWS, WIDTHS, st.integers(1, 8)),
    #: A warp's store of consecutive words, placed as ``load_run``.
    "store_run": (_BLOCK, SLOTS, SKEWS, WIDTHS,
                  st.lists(RAWS, min_size=1, max_size=8)),
    #: The FIFO head's first lane, on either architecture.
    "drain_head": (_BLOCK,),
    "drain_block": (_BLOCK,),
}
#: Stores and loads four times as often as any other step, so loads
#: meet queued stores (every host access drains the queues), and runs
#: and single-lane drains often enough to split runs.
_KINDS = (["store"] * 4 + ["load"] * 4 + ["load_run"] * 2 + ["store_run"] * 3
          + ["drain_one"] * 2 + ["drain_head"] * 2 + sorted(_ARGS))


@st.composite
def _op(draw):
    kind = draw(st.sampled_from(_KINDS))
    return (kind,) + tuple(draw(arg) for arg in _ARGS[kind])


def _check_load_run(flat, reference, block, slot, skew, width, count):
    """``flat.load_run`` against the lane-by-lane path it stands in
    front of: ``None`` exactly when some lane's load would fault or
    forward from one of ``block``'s queued stores, else each word equal
    to the reference's ``load`` of that lane."""
    span = len(flat.main.data) + 2 * width
    lo = BASE + (slot * width + skew + width) % span - width
    lanes = [lo + lane * width for lane in range(count)]
    queued = reference._queues.get(block, [])
    forwards = any(entry.addr < addr + width and addr < entry.addr + entry.width
                   for addr in lanes for entry in queued)
    faults = False
    for addr in lanes:
        try:
            flat.load(block, addr, width)
        except SimulationError:
            faults = True
    words = flat.load_run(block, lo, count, width)
    if forwards or faults:
        assert words is None, (lo, count, width, forwards, faults)
    else:
        assert words == [reference.load(block, addr, width) for addr in lanes]


def _check_store_run(flat, reference, block, slot, skew, width, raws):
    """``flat.store_run`` against the lane-by-lane stores it stands for:
    ``False``, and nothing queued, exactly when some lane's store would
    fault; else the reference queues each lane's store."""
    span = len(flat.main.data) + 2 * width
    lo = BASE + (slot * width + skew + width) % span - width
    lanes = [lo + lane * width for lane in range(len(raws))]
    faults = False
    for addr in lanes:
        try:
            flat.main.offset(addr, width)
        except SimulationError:
            faults = True
    pending = flat.pending_stores()
    assert flat.store_run(block, lo, width, raws) is not faults, (lo, width, raws)
    if faults:
        assert flat.pending_stores() == pending
    else:
        for addr, raw in zip(lanes, raws):
            reference.store(block, addr, width, raw)


def _run_both(arch, ops):
    """Apply ``ops`` to the flat memory and to the reference; every
    returned value and the final heap image must agree."""
    flat = GlobalMemory(arch)
    reference = oracle.ReferenceGlobalMemory(arch)
    images = []
    for mem in (flat, reference):
        assert mem.alloc(HEAP) == BASE

    def within(slot, width, count=1, skew=0):
        """The slot reduced into the heap, or None if nothing fits."""
        slots = (len(flat.main.data) - skew - width * count) // width + 1
        return BASE + slot % slots * width + skew if slots > 0 else None

    for op in ops:
        name, args = op[0], op[1:]
        if name == "alloc":
            assert flat.alloc(*args) == reference.alloc(*args)
        elif name in ("store", "load", "atomic"):
            block, slot, skew, width = args[:4]
            addr = within(slot, width, skew=skew)
            if addr is None:
                continue
            if name == "store":
                for mem in (flat, reference):
                    mem.store(block, addr, width, args[4])
            elif name == "load":
                assert flat.load(block, addr, width) == \
                    reference.load(block, addr, width), op
            else:
                delta = args[4]
                operation = (lambda old: None) if delta is None else (
                    lambda old: old + delta)
                assert flat.atomic(block, addr, width, operation) == \
                    reference.atomic(block, addr, width, operation), op
        elif name == "load_run":
            _check_load_run(flat, reference, *args)
        elif name == "store_run":
            _check_store_run(flat, reference, *args)
        elif name == "drain_head":
            assert flat.drain_one(*args) == reference.drain_one(*args)
        elif name == "drain_block":
            for mem in (flat, reference):
                mem.drain_block(*args)
        elif name == "drain_one":
            block, seed = args
            assert flat.drain_one(block, random.Random(seed)) == \
                reference.drain_one(block, random.Random(seed))
        elif name == "drain_heads":
            for mem in (flat, reference):
                mem.drain_heads(*args)
        elif name == "drain_all":
            for mem in (flat, reference):
                mem.drain_all()
        elif name == "snapshot":
            images.append((flat.snapshot(), reference.snapshot()))
        elif name == "restore":
            if images:
                flat.restore(images[-1][0])
                reference.restore(images[-1][1])
        elif name == "host_write":
            slot, width, values = args
            addr = within(slot, width, len(values))
            if addr is not None:
                for mem in (flat, reference):
                    mem.host_write_array(addr, values, width)
        else:
            slot, width, count = args
            addr = within(slot, width, count)
            if addr is not None:
                assert flat.host_read_array(addr, count, width) == \
                    reference.host_read_array(addr, count, width), op
        assert flat.pending_stores() == reference.pending_stores()
        assert bytes(flat.main.data) == reference.image(), op
    flat.drain_all()
    reference.drain_all()
    assert bytes(flat.main.data) == reference.image()


#: Bytes 4-7 of a load: the newest queued store holds 4-5, the oldest
#: 6-7.  Bytes 0-7: a third store shadows the oldest on 0-3.  Bytes
#: 5-6: the newest store holds the first, the oldest the second.
PARTIAL_OVERLAP = [
    ("store", 0, 0, 0, 8, 0x1111111111111111),
    ("store", 0, 0, 0, 4, 0x22222222),
    ("store", 0, 2, 0, 2, -3),
    ("load", 0, 1, 0, 4),
    ("load", 0, 0, 0, 8),
    ("load", 0, 2, 1, 2),
    ("load", 1, 0, 0, 8),
]


@pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
def test_partial_overlap_composes_byte_by_byte_like_the_reference(arch):
    _run_both(arch, PARTIAL_OVERLAP)
    mem = _heap(arch, size=HEAP)
    for _, block, slot, skew, width, raw in PARTIAL_OVERLAP[:3]:
        mem.store(block, BASE + slot * width + skew, width, raw)
    assert mem.load(0, BASE + 4, 4) == 0x1111FFFD
    assert mem.load(0, BASE, 8) == 0x1111FFFD22222222
    assert mem.load(0, BASE + 5, 2) == 0x11FF


#: Runs over the 32-byte heap: past other blocks' queued stores (one
#: slice), over the block's own (``None``), unaligned, and across either
#: end of the heap (``None``).
LOAD_RUNS = [
    ("store", 1, 2, 0, 4, 0x77),
    ("store", 1, 9, 0, 1, 0x66),
    ("load_run", 0, 0, 0, 4, 8),
    ("load_run", 0, 1, 1, 2, 5),
    ("store", 0, 5, 0, 4, 0x99),
    ("load_run", 0, 0, 0, 4, 8),
    ("load_run", 0, 0, 0, 4, 5),
    ("load_run", 0, 0, 0, 8, 3),
    ("load_run", 0, 6, 0, 4, 3),
    ("load_run", 1, 9, 0, 4, 2),
    ("drain_all",),
    ("load_run", 0, 0, 0, 4, 8),
]


@pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
def test_load_run_reads_one_slice_unless_a_lane_would_forward_or_fault(arch):
    _run_both(arch, LOAD_RUNS)
    mem = _heap(arch, size=HEAP)
    mem.host_write_array(BASE, range(8))
    mem.store(1, BASE + 8, 4, 0x77)
    assert mem.load_run(0, BASE, 8, 4) == list(range(8))
    assert mem.load_run(0, BASE + 4, 2, 8) == [0x0000000200000001,
                                               0x0000000400000003]
    assert mem.load_run(1, BASE, 2, 4) == [0, 1]  # beside its own store
    assert mem.load_run(1, BASE, 3, 4) is None    # over it
    assert mem.load_run(0, BASE + 28, 2, 4) is None  # across the heap end
    assert mem.load_run(0, BASE - 4, 2, 4) is None   # across its start


#: Runs over the 32-byte heap, queued around lane-by-lane stores: a
#: run over the block's own queued stores, one of one word, an
#: unaligned one, one across each end of the heap (refused), loaded
#: past their first lane, drained by single lanes, by random lanes, by
#: atomics over two lanes inside a run, and whole.
STORE_RUNS = [
    ("store", 0, 3, 0, 4, 0x33),
    ("store_run", 0, 0, 0, 4, [1, 2, 3, 4, 5, 6]),
    ("load_run", 0, 4, 0, 4, 2),
    ("load_run", 1, 4, 0, 4, 2),
    ("atomic", 1, 1, 0, 8, 5),
    ("load", 0, 4, 0, 4),
    ("store_run", 1, 2, 0, 2, [-1, 0x1_0000_0007, 9, 10]),
    ("store_run", 0, 5, 1, 1, [0xAB]),
    ("store_run", 0, 1, 1, 4, [7, 8, 9]),
    ("store", 0, 2, 0, 4, 0x22),
    ("store_run", 1, 6, 0, 4, [1, 2, 3]),
    ("store_run", 1, 0, 0, 8, [5]),
    ("load", 0, 1, 0, 4),
    ("load", 0, 0, 0, 8),
    ("load", 1, 1, 1, 2),
    ("drain_head", 0),
    ("drain_one", 0, 2),
    ("drain_one", 1, 3),
    ("load", 0, 4, 0, 4),
    ("atomic", 1, 4, 0, 4, 3),
    ("drain_heads", 2),
    ("drain_one", 0, 0),
    ("atomic", 0, 1, 2, 2, None),
    ("load", 0, 0, 0, 8),
    ("drain_block", 1),
    ("store_run", 0, 9, 0, 4, [1, 2]),
    ("store_run", 0, 0, 0, 4, [1] * 8),
    ("drain_all",),
]


@pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
def test_store_runs_drain_lane_by_lane_like_the_reference(arch):
    _run_both(arch, STORE_RUNS)
    mem = _heap(arch, size=HEAP)
    assert mem.store_run(0, BASE + 4, 4, [1, 2, 3])
    assert not mem.store_run(0, BASE + 24, 4, [4, 5, 6])  # past the end
    assert not mem.store_run(0, BASE - 4, 4, [4, 5])      # before the start
    assert mem.pending_stores() == 3 and len(mem._queues[0]) == 1
    mem.drain_heads(1)
    assert mem.main.read(BASE + 4, 4) == 1 and mem.main.read(BASE + 8, 4) == 0
    assert mem.pending_stores() == 2 and len(mem._queues[0]) == 1


@given(arch=st.sampled_from([MAXWELL_TITANX, KEPLER_K520]),
       ops=st.lists(_op(), min_size=16, max_size=64))
@example(arch=KEPLER_K520, ops=PARTIAL_OVERLAP + [("drain_one", 0, 1),
                                                  ("load", 0, 1, 0, 4)])
def test_flat_memory_matches_the_per_byte_reference(arch, ops):
    _run_both(arch, ops)


# ----------------------------------------------------------------------
# Warp-wide loads in the engine: one ``load_run`` per AFFINE load, the
# per-lane loop when a lane would forward or fault
# ----------------------------------------------------------------------
#: AFFINE loads under divergent masks (every lane but one in four; a
#: prefix of the warp) that re-read the block's own queued stores, and
#: AFFINE shared loads after ``__syncthreads()`` under a mask with gaps.
REREAD = """
__global__ void reread(int* in, int* out) {
    __shared__ int s[64];
    int t = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + t;
    out[gid] = in[gid] + t;
    if ((t & 3) != 1) {
        out[gid] = out[gid] * 2 + in[gid + 1];
    }
    if (t < 20) {
        out[gid] = out[gid] + in[gid + 2];
    }
    s[t] = in[gid] ^ t;
    __syncthreads();
    if ((t & 1) == 0) {
        out[gid] = out[gid] + s[t] + s[(t + 1) % 64];
    }
}
"""

#: Runs of every width and signedness: ``s16`` and ``s32`` words wrap
#: to negative values, ``f32`` words become floats, ``u64`` words are
#: eight bytes; the ``u8`` load has stride 2, not its width, so it
#: stays per lane.  Then, with addresses that stay AFFINE because they
#: were computed before the branch: a load over the block's own queued
#: stores and a run under a mask with gaps (one lane in four branches
#: away), a predicated run of the other lanes, and one of every lane
#: but lane 5.
WIDTHS_PTX = """.version 4.3
.target sm_35
.address_size 64
.visible .entry widths(.param .u64 in, .param .u64 out)
{
    .shared .align 4 .b8 s[260];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd9, [out];
    mov.u32 %r1, %tid.x;
    cvt.u64.u32 %rd2, %r1;
    mul.lo.u64 %rd3, %rd2, 2;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.s16 %r2, [%rd4];
    ld.global.u8 %r3, [%rd4+1];
    mul.lo.u64 %rd5, %rd2, 8;
    add.u64 %rd6, %rd1, %rd5;
    ld.global.u64 %rd7, [%rd6];
    cvt.u32.u64 %r5, %rd7;
    mul.lo.u64 %rd8, %rd2, 4;
    add.u64 %rd10, %rd1, %rd8;
    ld.global.f32 %f1, [%rd10+4];
    cvt.rzi.s32.f32 %r4, %f1;
    ld.global.s32 %r6, [%rd10+8];
    mov.u64 %rd12, s;
    add.u64 %rd13, %rd12, %rd8;
    st.shared.u32 [%rd13], %r6;
    bar.sync 0;
    ld.shared.s32 %r8, [%rd13+4];
    add.u64 %rd11, %rd9, %rd8;
    st.global.u32 [%rd11], %r8;
    and.b32 %r9, %r1, 3;
    setp.eq.u32 %p1, %r9, 1;
    @%p1 bra $L_join;
    ld.global.u32 %r10, [%rd11];
    ld.global.u32 %r11, [%rd10+12];
    add.u32 %r10, %r10, %r11;
$L_join:
    @%p1 ld.global.u32 %r12, [%rd10+16];
    setp.ne.u32 %p2, %laneid, 5;
    @%p2 ld.global.u32 %r13, [%rd10+20];
    add.s32 %r7, %r2, %r3;
    add.s32 %r7, %r7, %r4;
    add.s32 %r7, %r7, %r5;
    add.s32 %r7, %r7, %r6;
    add.s32 %r7, %r7, %r10;
    add.s32 %r7, %r7, %r12;
    add.s32 %r7, %r7, %r13;
    st.global.u32 [%rd11], %r7;
    ret;
}
"""


def _instrumented_launch(source, buffers, grid, block, arch, patches):
    """One instrumented launch with each ``(owner, name, replacement)``
    of ``patches`` in place.  Returns what it makes observable: its
    records, counters and final buffers."""
    module = parse_ptx(source) if source.startswith(".version") else compile_cuda(source)
    module, _report = Instrumenter().instrument_module(module)
    device = GpuDevice(arch)
    params = {}
    for name, values in buffers.items():
        params[name] = device.alloc(len(values) * 4)
        device.memcpy_to_device(params[name], values)
    sink = ListSink()
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, replacement in patches:
            patch.setattr(owner, name, replacement)
        result = device.launch(module, module.kernels[0].name, grid, block,
                               params=params, sink=sink, instrumented=True)
    return (
        sink.records,
        (result.steps, result.instructions, result.cycles, result.records_emitted),
        {name: device.memcpy_from_device(params[name], len(values))
         for name, values in buffers.items()},
    )


def _launch(source, buffers, grid, block, arch=MAXWELL_TITANX):
    """One instrumented launch.  Returns what it makes observable (its
    records, counters and final buffers), the address of each per-lane
    ``GlobalMemory.load``, and how often ``load_run`` returned words and
    ``None``."""
    per_lane, runs = [], {"words": 0, "none": 0}
    load, load_runs = GlobalMemory.load, {m: m.load_run for m in (GlobalMemory, SharedMemory)}

    def counted_load(self, block, addr, width):
        per_lane.append(addr)
        return load(self, block, addr, width)

    def counted_run(memory):
        def load_run(*args):
            words = load_runs[memory](*args)
            runs["none" if words is None else "words"] += 1
            return words
        return load_run

    observed = _instrumented_launch(
        source, buffers, grid, block, arch,
        [(GlobalMemory, "load", counted_load)]
        + [(memory, "load_run", counted_run(memory)) for memory in load_runs])
    return observed, per_lane, runs


#: Words with the sign bit of every width set in some lanes.
_WORDS = [(i * 0x9E3779B9) & 0xFFFFFFFF for i in range(260)]


@pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
@pytest.mark.parametrize("source, buffers", [
    (REREAD, {"in": _WORDS[:130], "out": [0] * 128}),
    (WIDTHS_PTX, {"in": _WORDS, "out": [0] * 128}),
], ids=["reread-under-divergence", "widths-and-masks"])
def test_warp_loads_match_the_per_thread_oracle(arch, source, buffers):
    with oracle.oracle_engine():
        expected, _, _ = _launch(source, buffers, 2, 64, arch)
    observed, _, runs = _launch(source, buffers, 2, 64, arch)
    assert observed == expected
    assert runs["words"] and runs["none"], runs  # both paths ran


#: Lanes 0-5 of warp 0 read bytes 65530-65535 of ``s`` and lanes 6-31
#: bytes 0-25: the u16 address wraps, so it is a modular AFFINE of stride
#: 1, which must not be loaded as the one run 65530-65561.  Warp 1's
#: address (26-57) does not wrap and is one run.
WRAPPED_ADDRESS_PTX = """.version 4.3
.target sm_35
.address_size 64
.visible .entry wrapped(.param .u64 out)
{
    .shared .align 4 .b8 s[65600];
    ld.param.u64 %rd9, [out];
    mov.u32 %r1, %tid.x;
    cvt.u64.u32 %rd1, %r1;
    add.u32 %r2, %r1, 1;
    st.shared.u8 [%rd1], %r2;
    add.u32 %r2, %r1, 100;
    st.shared.u8 [%rd1+65530], %r2;
    bar.sync 0;
    cvt.u16.u32 %rs1, %r1;
    add.u16 %rs2, %rs1, 65530;
    ld.shared.u8 %r3, [%rs2];
    mul.lo.u64 %rd2, %rd1, 4;
    add.u64 %rd3, %rd9, %rd2;
    st.global.u32 [%rd3], %r3;
    ret;
}
"""


def test_a_wrapped_address_is_not_one_warp_run():
    buffers = {"out": [0] * 64}
    with oracle.oracle_engine():
        expected, _, _ = _launch(WRAPPED_ADDRESS_PTX, buffers, 1, 64)
    observed, _, runs = _launch(WRAPPED_ADDRESS_PTX, buffers, 1, 64)
    assert observed == expected
    assert observed[2]["out"] == (
        [100 + lane for lane in range(6)] + list(range(1, 59)))
    assert runs == {"words": 1, "none": 0}  # warp 1 only


class TestWarpLoadCounts:
    """Like ``TestShapeRetention``: a warp path that silently never
    fires fails here by count, not by a stopwatch."""

    def test_saxpy_loads_make_no_per_lane_call(self):
        threads = 128
        (_, _, memory), per_lane, runs = _launch(SAXPY, {
            "a": list(range(threads)), "b": [5] * threads,
            "dst": list(reversed(range(threads))), "out": [0] * threads,
        }, grid=2, block=64)
        assert per_lane == [] and runs == {"words": 3 * 4, "none": 0}
        assert memory["out"] == [(threads - 1 - i) * 3 + 5 for i in range(threads)]

    def test_a_load_over_its_blocks_queued_stores_goes_lane_by_lane(self):
        (_, _, memory), per_lane, _ = _launch("""
__global__ void reread(int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = gid + 7;
    out[gid + 32] = out[gid];
}
""", {"out": [0] * 64}, grid=1, block=32)
        assert per_lane == [BASE + 4 * lane for lane in range(32)]
        assert memory["out"] == [lane + 7 for lane in range(32)] * 2


# ----------------------------------------------------------------------
# Warp-wide stores in the engine: one ``store_run`` per warp whose lanes
# store integers to consecutive words, the per-lane loop otherwise
# ----------------------------------------------------------------------
def _store_launch(source, buffers, grid, block, arch=MAXWELL_TITANX):
    """One instrumented launch.  Returns what it makes observable, the
    space of each per-lane store (``global``, or ``shared`` for shared
    and ``.local`` ones), and how often ``store_run`` queued or wrote a
    run and refused one."""
    per_lane, runs = [], {"stored": 0, "refused": 0}
    stores = {GlobalMemory: "global", SharedMemory: "shared"}
    patches = []
    for memory, space in stores.items():
        def counted_store(self, *args, _store=memory.store, _space=space):
            per_lane.append(_space)
            return _store(self, *args)

        def counted_run(self, *args, _run=memory.store_run):
            stored = _run(self, *args)
            runs["stored" if stored else "refused"] += 1
            return stored

        patches += [(memory, "store", counted_store),
                    (memory, "store_run", counted_run)]
    observed = _instrumented_launch(source, buffers, grid, block, arch, patches)
    return observed, per_lane, runs


def _store_ptx(store):
    """A kernel whose thread ``t`` computes ``%rd3 = out + 4t`` and
    ``%r2 = 7t + 1``, then runs ``store``."""
    return f""".version 4.3
.target sm_35
.address_size 64
.visible .entry stores(.param .u64 out)
{{
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    cvt.u64.u32 %rd2, %r1;
    mul.lo.u64 %rd2, %rd2, 4;
    add.u64 %rd3, %rd1, %rd2;
    mad.lo.u32 %r2, %r1, 7, 1;
    and.b32 %r9, %r1, 3;
    {store}
    ret;
}}
"""


#: Each case: its PTX store, the words of ``out`` it leaves, and the
#: per-lane store calls of 64 threads (two warps).
PER_LANE_STORES = {
    "mask-with-gaps": (
        "setp.ne.u32 %p1, %r9, 1;\n    @%p1 st.global.u32 [%rd3], %r2;",
        [0 if t & 3 == 1 else 7 * t + 1 for t in range(64)], ["global"] * 48),
    "float": (
        "cvt.rn.f32.u32 %f1, %r2;\n    st.global.f32 [%rd3], %f1;",
        None, ["global"] * 64),
    "vector": (
        "mul.wide.u32 %rd4, %r1, 8;\n    add.u64 %rd5, %rd1, %rd4;\n"
        "    @%p2 st.global.v2.u32 [%rd5], {%r2, %r9};",
        [7 * t + 1 if i == 0 else t & 3 for t in range(32) for i in (0, 1)],
        ["global"] * 64),
    # Consecutive words, but each in its own thread's extent.
    "local": (
        "st.local.u32 [%rd2], %r2;\n    ld.local.u32 %r3, [%rd2];\n"
        "    st.global.u32 [%rd3], %r3;",
        [7 * t + 1 for t in range(64)], ["shared"] * 64),
}


class TestWarpStoreCounts:
    """Like ``TestWarpLoadCounts``: a warp store path that silently
    never fires, or fires where a lane must go on its own, fails here
    by count."""

    def test_saxpy_stores_through_an_identity_dst_make_no_per_lane_call(self):
        threads = 128
        (_, _, memory), per_lane, runs = _store_launch(SAXPY, {
            "a": list(range(threads)), "b": [5] * threads,
            "dst": list(range(threads)), "out": [0] * threads,
        }, grid=2, block=64)
        assert per_lane == [] and runs == {"stored": 4, "refused": 0}
        assert memory["out"] == [i * 3 + 5 for i in range(threads)]

    def test_a_planted_out_of_order_lane_goes_lane_by_lane(self):
        # Lanes 3 and 5 of warp 1 swap words: the warp's first and last
        # addresses are those of a run, the order is not.
        threads = 128
        dst = list(range(threads))
        dst[35], dst[37] = dst[37], dst[35]
        buffers = {"a": list(range(threads)), "b": [5] * threads,
                   "dst": dst, "out": [0] * threads}
        with oracle.oracle_engine():
            expected, _, _ = _store_launch(SAXPY, buffers, 2, 64)
        observed, per_lane, runs = _store_launch(SAXPY, buffers, 2, 64)
        assert observed == expected
        assert per_lane == ["global"] * 32 and runs == {"stored": 3, "refused": 0}

    def test_a_contiguous_prefix_mask_is_one_run(self):
        source = _store_ptx("setp.lt.u32 %p1, %r1, 20;\n"
                            "    @%p1 st.global.u32 [%rd3], %r2;")
        with oracle.oracle_engine():
            expected, _, _ = _store_launch(source, {"out": [0] * 64}, 1, 64)
        observed, per_lane, runs = _store_launch(source, {"out": [0] * 64}, 1, 64)
        assert observed == expected
        assert observed[2]["out"] == [7 * t + 1 for t in range(20)] + [0] * 44
        assert per_lane == [] and runs == {"stored": 1, "refused": 0}

    @pytest.mark.parametrize("arch", [MAXWELL_TITANX, KEPLER_K520], ids=str)
    @pytest.mark.parametrize("case", sorted(PER_LANE_STORES))
    def test_these_go_lane_by_lane_like_the_per_thread_oracle(self, case, arch):
        store, words, calls = PER_LANE_STORES[case]
        source = _store_ptx("setp.lt.u32 %p2, %r1, 32;\n    " + store)
        with oracle.oracle_engine():
            expected, _, _ = _store_launch(source, {"out": [0] * 64}, 1, 64, arch)
        observed, per_lane, runs = _store_launch(source, {"out": [0] * 64}, 1, 64, arch)
        assert observed == expected
        assert observed[2]["out"] == (
            words if words is not None else [7 * t + 1 for t in range(64)])
        assert per_lane == calls
        # Only the ``.local`` case's global store, a run per warp.
        assert runs == {"stored": 2 if case == "local" else 0, "refused": 0}

    def test_a_shared_tile_is_one_slice_per_warp(self):
        (_, _, memory), per_lane, runs = _store_launch("""
__global__ void tile(int* in, int* out) {
    __shared__ int s[64];
    int t = threadIdx.x;
    s[t] = in[t] + 1;
    __syncthreads();
    out[t] = s[63 - t];
}
""", {"in": list(range(64)), "out": [0] * 64}, grid=1, block=64)
        assert memory["out"] == [64 - t for t in range(64)]
        assert per_lane == [] and runs == {"stored": 4, "refused": 0}

    def test_a_run_whose_last_lane_is_illegal_faults_at_that_lane(self):
        module = parse_ptx(_store_ptx("st.global.u32 [%rd3], %r2;"))
        outcomes = []
        for engine in (oracle.oracle_engine, contextlib.nullcontext):
            device = GpuDevice()
            out = device.alloc(31 * 4)  # the heap ends one word short of the warp
            with engine(), pytest.raises(SimulationError) as error:
                device.launch(module, "stores", 1, 32, params={"out": out})
            outcomes.append((str(error.value), device.global_mem.pending_stores()))
        # The per-thread oracle's fault, after lanes 0-30 were queued.
        assert outcomes[1] == outcomes[0] == (
            f"illegal address {BASE + 124:#x}: 4-byte access outside "
            f"[{BASE:#x}, {BASE + 124:#x})", 31)
