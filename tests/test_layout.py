"""GridLayout: id arithmetic and partial warps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LaunchConfigError
from repro.trace.layout import GridLayout


def test_basic_sizes():
    layout = GridLayout(num_blocks=4, threads_per_block=96, warp_size=32)
    assert layout.total_threads == 384
    assert layout.warps_per_block == 3
    assert layout.total_warps == 12


def test_partial_last_warp():
    layout = GridLayout(num_blocks=2, threads_per_block=40, warp_size=32)
    assert layout.warps_per_block == 2
    assert layout.warp_tids(1) == list(range(32, 40))
    assert layout.warp_tids(2) == list(range(40, 72))
    assert layout.warp_span(3) == (72, 8)


def test_id_round_trips():
    layout = GridLayout(num_blocks=3, threads_per_block=64, warp_size=32)
    tid = layout.tid(2, 33)
    assert tid == 161
    assert layout.block_of(tid) == 2
    assert layout.thread_in_block(tid) == 33
    assert layout.warp_of(tid) == 2 * 2 + 1
    assert layout.lane_of(tid) == 1
    assert layout.block_of_warp(layout.warp_of(tid)) == 2


def test_block_warps_and_tids():
    layout = GridLayout(num_blocks=2, threads_per_block=8, warp_size=4)
    assert layout.block_warps(1) == [2, 3]
    assert layout.block_tids(1) == list(range(8, 16))


def test_invalid_configs_rejected():
    with pytest.raises(LaunchConfigError):
        GridLayout(num_blocks=0, threads_per_block=1)
    with pytest.raises(LaunchConfigError):
        GridLayout(num_blocks=1, threads_per_block=0)
    layout = GridLayout(num_blocks=1, threads_per_block=4)
    with pytest.raises(LaunchConfigError):
        layout.tid(1, 0)
    with pytest.raises(LaunchConfigError):
        layout.tid(0, 4)


layouts = st.builds(
    GridLayout,
    num_blocks=st.integers(1, 5),
    threads_per_block=st.integers(1, 70),
    warp_size=st.integers(1, 33),
)


@given(layouts)
def test_warps_partition_threads(layout):
    seen = []
    for warp in layout.all_warps():
        tids = layout.warp_tids(warp)
        assert tids, f"warp {warp} empty"
        for tid in tids:
            assert layout.warp_of(tid) == warp
        seen.extend(tids)
    assert sorted(seen) == list(layout.all_tids())


@given(layouts)
def test_blocks_partition_warps(layout):
    seen = []
    for block in range(layout.num_blocks):
        for warp in layout.block_warps(block):
            assert layout.block_of_warp(warp) == block
            seen.append(warp)
    assert sorted(seen) == list(layout.all_warps())


@given(layouts, st.data())
def test_lane_within_warp_size(layout, data):
    tid = data.draw(st.integers(0, layout.total_threads - 1))
    assert 0 <= layout.lane_of(tid) < layout.warp_size


def test_bits_by_warp_on_a_partial_last_warp():
    layout = GridLayout(num_blocks=2, threads_per_block=40, warp_size=32)
    assert layout.bits_by_warp([0, 31, 32, 39, 40, 79]) == {
        0: 1 | 1 << 31, 1: 1 | 1 << 7, 2: 1, 3: 1 << 7}
    assert layout.bits_by_warp(()) == {}
    assert layout.bits_by_warp(tuple(range(30, 75))) == {
        0: 0b11 << 30, 1: 0xFF, 2: (1 << 32) - 1, 3: 0b111}
    assert layout.barrier_complete(1, layout.bits_by_warp(range(40, 80)))
    assert not layout.barrier_complete(1, layout.bits_by_warp(range(41, 80)))
    assert layout.barrier_complete(-1, layout.bits_by_warp(range(80)))


@given(layouts, st.data())
def test_bits_by_warp_spells_each_tid_once(layout, data):
    """Bit ``l`` of warp ``w``'s entry is TID ``warp_span(w)[0] + l``."""
    lo = data.draw(st.integers(0, layout.total_threads - 1))
    hi = data.draw(st.integers(lo, layout.total_threads))
    for tids in (data.draw(st.sets(st.integers(0, layout.total_threads - 1))),
                 set(range(lo, hi))):
        spelled = set()
        by_warp = layout.bits_by_warp(tids)
        for warp, bits in by_warp.items():
            first, count = layout.warp_span(warp)
            assert bits and bits < 1 << count
            spelled |= {first + lane for lane in range(count)
                        if bits >> lane & 1}
        assert spelled == tids
        # As the pool holds it: consecutive TIDs go warp by warp.
        assert layout.bits_by_warp(tuple(sorted(tids))) == by_warp
