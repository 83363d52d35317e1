"""Shadow memory: page table, per-block shared tables, footprint."""

from repro.core.shadow import PAGE_BYTES, RECORD_BYTES, ShadowEntry, ShadowMemory
from repro.core.vectorclock import Epoch
from repro.trace import GridLayout, global_loc, shared_loc

LAYOUT = GridLayout(num_blocks=2, threads_per_block=8, warp_size=4)


def test_entries_allocated_lazily():
    shadow = ShadowMemory(LAYOUT)
    assert shadow.peek(global_loc(0)) is None
    entry = shadow.entry(global_loc(0))
    assert shadow.peek(global_loc(0)) is entry
    assert shadow.stats.entries == 1


def test_page_table_granularity():
    shadow = ShadowMemory(LAYOUT)
    shadow.entry(global_loc(0))
    shadow.entry(global_loc(PAGE_BYTES - 1))  # same page
    assert shadow.stats.global_pages == 1
    shadow.entry(global_loc(PAGE_BYTES))  # next page
    assert shadow.stats.global_pages == 2


def test_shared_tables_are_per_block():
    shadow = ShadowMemory(LAYOUT)
    a = shadow.entry(shared_loc(0, 16))
    b = shadow.entry(shared_loc(1, 16))
    assert a is not b
    assert not a.global_mem
    assert shadow.stats.global_pages == 0


def test_modeled_bytes_match_record_size():
    shadow = ShadowMemory(LAYOUT)
    for offset in range(10):
        shadow.entry(global_loc(offset))
    assert shadow.stats.modeled_bytes == 10 * RECORD_BYTES
    assert RECORD_BYTES == 32  # 28 bytes padded to 32 (Figure 8)


def test_entry_initial_state():
    entry = ShadowEntry()
    assert entry.write_epoch == Epoch.bottom()
    assert not entry.atomic
    assert entry.read_epoch == Epoch.bottom()
    assert entry.readers is None
    assert not entry.read_shared
    assert not entry.sync_loc


def test_inflate_reads_switches_to_map_form():
    entry = ShadowEntry()
    entry.inflate_reads(Epoch(3, 1))
    assert entry.read_epoch is None
    assert entry.read_shared
    assert entry.readers.get(1) == 3


def test_reset_reads_restores_epoch_form():
    entry = ShadowEntry()
    entry.inflate_reads(Epoch(3, 1))
    entry.read_pcs[1] = 7
    entry.reset_reads()
    assert entry.read_epoch == Epoch.bottom()
    assert entry.readers is None
    assert not entry.read_shared
    assert entry.read_pcs == {}


def test_entry_is_entry_at_through_either_door():
    """``entry(loc)`` is the one-line adapter of ``entry_at(block, offset)``:
    one record per cell and the same counters whichever door is used."""
    locs = [global_loc(0), global_loc(PAGE_BYTES - 4), global_loc(PAGE_BYTES),
            global_loc(-4), shared_loc(0, 16), shared_loc(1, 16)]
    by_loc, by_cell = ShadowMemory(LAYOUT), ShadowMemory(LAYOUT)
    for loc in locs:
        entry = by_loc.entry(loc)
        assert by_loc.entry_at(loc.block, loc.offset) is entry
        assert by_loc.peek(loc) is entry
        cell_entry = by_cell.entry_at(loc.block, loc.offset)
        assert by_cell.entry(loc) is cell_entry
        assert cell_entry.global_mem == entry.global_mem == (loc.block < 0)
    assert by_loc.stats == by_cell.stats
    assert by_cell.stats.entries == len(locs)
    assert by_cell.stats.global_pages == 3  # pages -1, 0 and 1
