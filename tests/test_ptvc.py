"""PTVC compression: formats, transitions, and equivalence (§4.3.1)."""

from repro.core.ptvc import PTVCFormat, PTVCManager
from repro.core.structured import StructuredVC
from repro.core.vectorclock import Epoch
from repro.trace import GridLayout
from repro.trace.operations import Else, Fi, If

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
    clocks.branch_if(If(warp=0, then_mask=then_mask, else_mask=else_mask))
    assert clocks.active_mask(0) == then_mask
    then_self = clocks.value(0, 0)
    clocks.end_instruction(0)  # then path advances
    assert clocks.value(0, 0) == then_self + 1
    # The paused else threads do not advance, and the then thread's view
    # of them is stale (they are logically concurrent).
    assert clocks.value(1, 1) == 1
    assert clocks.value(0, 1) == 0

    clocks.branch_else(Else(warp=0))
    assert clocks.active_mask(0) == else_mask
    # Else path does not see the then path's work.
    assert clocks.value(1, 0) < clocks.value(0, 0)

    clocks.branch_fi(Fi(warp=0))
    assert clocks.active_mask(0) == frozenset({0, 1, 2})
    # After reconvergence everyone has seen everyone.
    for tid in (0, 1, 2):
        for mate in (0, 1, 2):
            if mate != tid:
                assert clocks.value(tid, mate) >= 1


def test_barrier_broadcasts_block_clock():
    clocks = PTVCManager(LAYOUT)
    clocks.end_instruction(0)  # warp 0 ahead
    clocks.barrier(0, frozenset(LAYOUT.block_tids(0)))
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
    clocks.branch_if(If(warp=0, then_mask=frozenset({0, 1}), else_mask=frozenset({2, 3})))
    clocks.end_instruction(0)
    clocks.branch_if(If(warp=0, then_mask=frozenset({0}), else_mask=frozenset({1})))
    clocks.end_instruction(0)
    assert clocks.format_of(0) in (PTVCFormat.DIVERGED, PTVCFormat.NESTED_DIVERGED)
    # Unwind and verify reconvergence restores a cheap format.
    clocks.branch_else(Else(warp=0))
    clocks.branch_fi(Fi(warp=0))
    clocks.branch_else(Else(warp=0))
    clocks.branch_fi(Fi(warp=0))
    assert clocks.active_mask(0) == frozenset({0, 1, 2, 3})
    assert clocks.format_of(0) is PTVCFormat.CONVERGED


def test_stats_compression_ratio_scales_with_threads():
    layout = GridLayout(num_blocks=8, threads_per_block=64, warp_size=32)
    clocks = PTVCManager(layout)
    for warp in layout.all_warps():
        clocks.end_instruction(warp)
    for block in range(layout.num_blocks):
        clocks.barrier(block, frozenset(layout.block_tids(block)))
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
    clocks.barrier(0, frozenset(range(6)))
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
    clocks.barrier(0, frozenset(range(6)) - {0})
    clocks.end_instruction(0)  # re-absorbs warp 0's deviants
    assert clocks.active_mask(1) == frozenset({3, 4, 5})
    assert clocks.converged_view(1, 3, 6).uniform_clock() == 0
    assert clocks.converged_view(0, 0, 3).uniform_clock() > 0
