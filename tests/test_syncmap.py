"""Sync-location metadata: per-block clocks + the global-part trick."""

from repro.core.structured import StructuredVC
from repro.core.syncmap import SyncLocation, SyncLocationMap
from repro.trace import GridLayout

LAYOUT = GridLayout(num_blocks=4, threads_per_block=8, warp_size=4)


def _clock(**lanes):
    vc = StructuredVC(LAYOUT)
    for tid, value in lanes.items():
        vc.set_lane(int(tid), value)
    return vc


def _joined(clocks):
    out = StructuredVC(LAYOUT)
    for clock in clocks:
        out.join(clock)
    return out


def test_block_release_visible_to_same_block_acquire():
    sync = SyncLocation(LAYOUT)
    sync.release(1, _clock(**{"9": 5}))
    acquired = _joined(sync.acquire(1))
    assert acquired.get(9) == 5


def test_block_release_invisible_to_other_blocks():
    sync = SyncLocation(LAYOUT)
    sync.release(1, _clock(**{"9": 5}))
    assert _joined(sync.acquire(2)).get(9) == 0


def test_global_release_visible_everywhere():
    sync = SyncLocation(LAYOUT)
    sync.release(-1, _clock(**{"3": 7}))
    for block in range(LAYOUT.num_blocks):
        assert _joined(sync.acquire(block)).get(3) == 7


def test_global_acquire_sees_block_releases_from_any_block():
    sync = SyncLocation(LAYOUT)
    sync.release(0, _clock(**{"1": 2}))
    sync.release(3, _clock(**{"30": 4}))
    acquired = _joined(sync.acquire(-1))
    assert acquired.get(1) == 2
    assert acquired.get(30) == 4


def test_releases_accumulate_rather_than_overwrite():
    # Two releases by unrelated threads: both must stay visible, which is
    # why the REL* rules join into S_x (see repro.core.reference notes).
    sync = SyncLocation(LAYOUT)
    sync.release(0, _clock(**{"1": 2}))
    sync.release(0, _clock(**{"2": 9}))
    acquired = _joined(sync.acquire(0))
    assert acquired.get(1) == 2
    assert acquired.get(2) == 9


def test_global_part_is_constant_size():
    # A global release touches one clock, not one per block of the grid.
    sync = SyncLocation(LAYOUT)
    sync.release(-1, _clock(**{"3": 7}))
    assert len(sync.blocks) == 0
    assert sync.entry_count() == 1


def test_map_tracks_sync_locations():
    sync_map = SyncLocationMap(LAYOUT)
    flag = (-1, 64)  # the global cell at offset 64
    assert not sync_map.is_sync_location(flag)
    sync_map.get(flag)
    assert sync_map.is_sync_location(flag)
    assert list(sync_map) == [flag]
    assert len(sync_map) == 1
