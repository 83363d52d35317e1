"""PTVC compression: formats, transitions, and equivalence (§4.3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BarracudaDetector, ReferenceDetector
from repro.core.ptvc import PTVCFormat, PTVCManager
from repro.core.structured import StructuredVC
from repro.core.vectorclock import Epoch
from repro.errors import TraceError
from repro.trace import GridLayout
from tracegen import feasible_traces

LAYOUT = GridLayout(num_blocks=2, threads_per_block=6, warp_size=3)


def test_initial_state_matches_sigma0():
    clocks = PTVCManager(LAYOUT)
    for tid in LAYOUT.all_tids():
        assert clocks.value(tid, tid) == 1  # own entry incremented
        for other in LAYOUT.all_tids():
            if other != tid:
                assert clocks.value(tid, other) == 0
    for warp in LAYOUT.all_warps():
        assert clocks.format_of(warp) is PTVCFormat.CONVERGED


def test_end_instruction_joins_and_forks():
    clocks = PTVCManager(LAYOUT)
    clocks.end_instruction(0)
    for tid in LAYOUT.warp_tids(0):
        assert clocks.value(tid, tid) == 2
        for mate in LAYOUT.warp_tids(0):
            if mate != tid:
                assert clocks.value(tid, mate) == 1
    # Other warps untouched.
    assert clocks.value(3, 3) == 1
    assert clocks.format_of(0) is PTVCFormat.CONVERGED


def test_converged_format_is_one_entry_per_warp():
    clocks = PTVCManager(LAYOUT)
    for _ in range(10):
        clocks.end_instruction(0)
    stats = clocks.stats()
    # Warp 0's history is one warp-layer entry, not 3 lanes x 10 steps.
    assert stats.stored_entries <= LAYOUT.total_warps
    assert stats.format_counts[PTVCFormat.CONVERGED] == LAYOUT.total_warps


def test_branch_divergence_tracks_paths_independently():
    clocks = PTVCManager(LAYOUT)
    then_mask, else_mask = frozenset({0}), frozenset({1, 2})
    clocks.branch_if(0, 0b001, 0b111)
    assert clocks.active_tids(0) == then_mask
    then_self = clocks.value(0, 0)
    clocks.end_instruction(0)  # then path advances
    assert clocks.value(0, 0) == then_self + 1
    # The paused else threads do not advance, and the then thread's view
    # of them is stale (they are logically concurrent).
    assert clocks.value(1, 1) == 1
    assert clocks.value(0, 1) == 0

    clocks.branch_else(0)
    assert clocks.active_tids(0) == else_mask
    # Else path does not see the then path's work.
    assert clocks.value(1, 0) < clocks.value(0, 0)

    clocks.branch_fi(0)
    assert clocks.active_tids(0) == frozenset({0, 1, 2})
    # After reconvergence everyone has seen everyone.
    for tid in (0, 1, 2):
        for mate in (0, 1, 2):
            if mate != tid:
                assert clocks.value(tid, mate) >= 1


def test_barrier_broadcasts_block_clock():
    clocks = PTVCManager(LAYOUT)
    clocks.end_instruction(0)  # warp 0 ahead
    clocks.barrier(0, LAYOUT.bits_by_warp(LAYOUT.block_tids(0)))
    # Threads of warp 1 (same block) now see warp 0's pre-barrier work.
    assert clocks.value(3, 0) >= 2
    # The other block is unaffected.
    assert clocks.value(6, 0) == 0
    stats = clocks.stats()
    assert stats.format_counts[PTVCFormat.CONVERGED] == LAYOUT.total_warps


def _release(clocks, tid, target):
    """The REL rule as the detector applies it: ``target ⊔= C_t``, ``inc_t``."""
    target.join(clocks.materialize(tid))
    clocks.increment(tid)


def test_acquire_release_deviates_and_rejoins():
    clocks = PTVCManager(LAYOUT)
    target = StructuredVC(LAYOUT)
    _release(clocks, 0, target)  # t0 publishes and deviates
    assert clocks.format_of(0) is PTVCFormat.SPARSE
    assert target.get(0) == 1

    clocks.acquire_into(7, target)  # t7 (other block) acquires
    assert clocks.value(7, 0) == 1
    assert clocks.format_of(LAYOUT.warp_of(7)) is PTVCFormat.SPARSE

    clocks.end_instruction(0)
    clocks.end_instruction(LAYOUT.warp_of(7))
    assert clocks.format_of(0) is PTVCFormat.CONVERGED


def test_release_increments_own_clock():
    clocks = PTVCManager(LAYOUT)
    target = StructuredVC(LAYOUT)
    before = clocks.value(0, 0)
    _release(clocks, 0, target)
    assert clocks.value(0, 0) == before + 1
    assert target.get(0) == before


def test_materialize_is_a_snapshot():
    clocks = PTVCManager(LAYOUT)
    snapshot = clocks.materialize(0)
    clocks.end_instruction(0)
    assert snapshot.get(0) == 1
    assert clocks.value(0, 0) == 2


def test_nested_divergence_format():
    layout = GridLayout(num_blocks=1, threads_per_block=4, warp_size=4)
    clocks = PTVCManager(layout)
    clocks.branch_if(0, 0b0011, 0b1111)
    clocks.end_instruction(0)
    clocks.branch_if(0, 0b0001, 0b0011)
    clocks.end_instruction(0)
    assert clocks.format_of(0) in (PTVCFormat.DIVERGED, PTVCFormat.NESTED_DIVERGED)
    # Unwind and verify reconvergence restores a cheap format.
    clocks.branch_else(0)
    clocks.branch_fi(0)
    clocks.branch_else(0)
    clocks.branch_fi(0)
    assert clocks.active_tids(0) == frozenset({0, 1, 2, 3})
    assert clocks.format_of(0) is PTVCFormat.CONVERGED


def test_stats_compression_ratio_scales_with_threads():
    layout = GridLayout(num_blocks=8, threads_per_block=64, warp_size=32)
    clocks = PTVCManager(layout)
    for warp in layout.all_warps():
        clocks.end_instruction(warp)
    for block in range(layout.num_blocks):
        clocks.barrier(block, layout.bits_by_warp(layout.block_tids(block)))
    stats = clocks.stats()
    assert stats.dense_entries == 512 * 512
    # A few entries represent what would be a 512x512 matrix.
    assert stats.compression_ratio > 1000
    assert stats.warp_uniform_fraction == 1.0


def test_converged_view_answers_for_a_whole_warp_at_once():
    """``uniform_clock``/``covers_warp`` are what lets one range access
    stand for a warp's lanes: exact for the view's own warp, and never
    a yes the per-lane ``covers`` would not give."""
    clocks = PTVCManager(LAYOUT)
    clocks.end_instruction(0)
    clocks.end_instruction(1)
    clocks.barrier(0, {0: 0b111, 1: 0b111})
    clocks.end_instruction(0)  # warp 0 is one step past the barrier
    view = clocks.converged_view(0, 0, 3)
    assert view.uniform_clock() == clocks.epoch(0).clock == clocks.epoch(2).clock
    for clock in range(1, 5):
        own = all(view.covers(t, Epoch(clock, u))
                  for t in range(3) for u in range(3) if t != u)
        assert view.covers_warp(clock, 1) == own
        other = all(view.covers(0, Epoch(clock, u)) for u in range(3, 6))
        assert view.covers_warp(clock, 4) == other
        assert not view.covers_warp(clock, 7)  # block 1: never synchronized
    # A divergent barrier leaves per-lane entries for the participants:
    # the full warp 1 then shares no clock the view could name.
    clocks.barrier(0, {0: 0b110, 1: 0b111})
    clocks.end_instruction(0)  # re-absorbs warp 0's deviants
    assert clocks.active_tids(1) == frozenset({3, 4, 5})
    assert clocks.converged_view(1, 3, 6).uniform_clock() == 0
    assert clocks.converged_view(0, 0, 3).uniform_clock() > 0


# ----------------------------------------------------------------------
# Masks are lane bits relative to a warp's first thread: widths other
# than 32, and the short last warp of a block.
# ----------------------------------------------------------------------
PARTIAL = GridLayout(num_blocks=2, threads_per_block=40, warp_size=32)
WIDE = GridLayout(num_blocks=1, threads_per_block=128, warp_size=64)


def test_a_partial_last_warp_starts_and_stays_converged():
    clocks = PTVCManager(PARTIAL)
    tail = frozenset(range(72, 80))  # block 1's second warp: 8 lanes
    assert clocks.active_tids(3) == tail
    assert clocks.active_mask(3) == 0xFF
    assert clocks.active_mask(3) >> (79 - 72) & 1
    clocks.end_instruction(3)
    # The 8 live lanes are the whole warp: one warp-layer entry.
    assert clocks.format_of(3) is PTVCFormat.CONVERGED
    assert clocks.value(72, 79) == 1 and clocks.value(79, 79) == 2
    then_mask = frozenset({73, 75, 77, 79})
    clocks.branch_if(3, 0b10101010, 0xFF)
    assert clocks.active_tids(3) == then_mask
    assert clocks.active_mask(3) == 0b10101010
    assert not clocks.active_mask(3) & 1 and clocks.active_mask(3) >> 1 & 1
    clocks.branch_else(3)
    clocks.branch_fi(3)
    assert clocks.active_tids(3) == tail
    assert clocks.format_of(3) is PTVCFormat.CONVERGED
    clocks.barrier(1, PARTIAL.bits_by_warp(range(40, 80)))
    assert clocks.value(40, 79) >= 2  # block 1 saw the tail's steps
    assert clocks.format_of(2) is clocks.format_of(3) is PTVCFormat.CONVERGED


def test_a_64_lane_warp_keeps_lanes_above_31():
    clocks = PTVCManager(WIDE)
    assert clocks.active_mask(1) == (1 << 64) - 1
    high = ((1 << 32) - 1) << 32  # lanes 32..63 of warp 1: tids 96..127
    clocks.branch_if(1, high, (1 << 64) - 1)
    assert clocks.active_mask(1) == ((1 << 32) - 1) << 32
    assert clocks.active_mask(1) >> 63 & 1 and not clocks.active_mask(1) & 1
    clocks.end_instruction(1)
    assert clocks.value(127, 127) == clocks.value(96, 96) == 3
    clocks.branch_else(1)
    assert clocks.active_mask(1) == (1 << 32) - 1
    # The else path has not seen the high lanes' steps.
    assert clocks.value(64, 127) == 0 and clocks.value(64, 64) == 2
    clocks.branch_fi(1)
    assert clocks.active_tids(1) == frozenset(range(64, 128))
    clocks.end_instruction(1)
    assert clocks.format_of(1) is PTVCFormat.CONVERGED
    # A barrier one lane short is not complete: per-lane entries instead
    # of a block broadcast, and the arrived lanes of the partially
    # arrived warp deviate.
    clocks.barrier(0, WIDE.bits_by_warp(range(127)))
    assert clocks.format_of(0) is PTVCFormat.DIVERGED
    assert clocks.format_of(1) is PTVCFormat.SPARSE
    assert clocks.value(64, 5) == clocks.value(5, 5) - 1
    assert clocks.value(127, 5) == 0


@pytest.mark.parametrize("then_bits, mask_bits", [
    (0b1 | 1 << 8, 0x1FF),  # tid 40: a lane above the warp's 8
    (0b1, 0x7F),            # tid 39 on neither path
], ids=["above", "short"])
def test_a_split_that_is_not_the_active_set_is_refused(then_bits, mask_bits):
    clocks = PTVCManager(PARTIAL)  # warp 1 is tids 32..39
    with pytest.raises(TraceError, match="do not split the active set"):
        clocks.branch_if(1, then_bits, mask_bits)


@pytest.mark.parametrize("layout", [PARTIAL, WIDE],
                         ids=["partial-last-warp", "64-lanes"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compressed_clocks_give_the_reference_verdicts(layout, data):
    """The same races and barrier divergences as per-thread clocks, on
    random feasible traces at these widths."""
    trace = data.draw(feasible_traces(max_ops=40, layout=layout))
    reference = ReferenceDetector(layout).process_trace(trace)
    production = BarracudaDetector(layout).process_trace(trace)
    assert (sorted(map(str, production.races))
            == sorted(map(str, reference.races)))
    assert ([str(report) for report in production.barrier_divergences]
            == [str(report) for report in reference.barrier_divergences])
