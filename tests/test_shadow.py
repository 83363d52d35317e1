"""Shadow memory: page table, per-block shared tables, footprint, and
ranged cells held to the per-word store they compress."""

from hypothesis import given
from hypothesis import strategies as st

from repro.columnar import ColumnarBatch
from repro.core.detector import BarracudaDetector
from repro.core.reference import DetectorConfig
from repro.core.shadow import (
    PAGE_BYTES,
    RECORD_BYTES,
    RangeCell,
    ShadowEntry,
    ShadowMemory,
)
from repro.core.vectorclock import Epoch
from repro.events import LogRecord, RecordKind, record_to_ops
from repro.trace import GridLayout, Location, Space, global_loc, shared_loc

LAYOUT = GridLayout(num_blocks=2, threads_per_block=8, warp_size=4)


def test_entries_allocated_lazily():
    shadow = ShadowMemory(LAYOUT)
    assert shadow.peek(global_loc(0)) is None
    entry = shadow.entry_at(-1, 0)
    assert shadow.peek(global_loc(0)) is entry
    assert shadow.stats.entries == 1


def test_page_table_granularity():
    shadow = ShadowMemory(LAYOUT)
    shadow.entry_at(-1, 0)
    shadow.entry_at(-1, PAGE_BYTES - 1)  # same page
    assert shadow.stats.global_pages == 1
    shadow.entry_at(-1, PAGE_BYTES)  # next page
    assert shadow.stats.global_pages == 2


def test_shared_tables_are_per_block():
    shadow = ShadowMemory(LAYOUT)
    a = shadow.entry_at(0, 16)
    b = shadow.entry_at(1, 16)
    assert a is not b
    assert shadow.stats.global_pages == 0


def test_modeled_bytes_match_record_size():
    shadow = ShadowMemory(LAYOUT)
    for offset in range(10):
        shadow.entry_at(-1, offset)
    assert shadow.stats.modeled_bytes == 10 * RECORD_BYTES
    assert RECORD_BYTES == 32  # 28 bytes padded to 32 (Figure 8)


def test_entry_initial_state():
    entry = ShadowEntry()
    assert entry.write_epoch == Epoch.bottom()
    assert not entry.atomic
    assert entry.read_epoch == Epoch.bottom()
    assert entry.readers is None


def test_inflate_reads_switches_to_map_form():
    entry = ShadowEntry()
    entry.inflate_reads(Epoch(3, 1))
    assert entry.read_epoch is None
    assert entry.readers.get(1) == 3


def test_reset_reads_restores_epoch_form():
    entry = ShadowEntry()
    entry.inflate_reads(Epoch(3, 1))
    entry.read_pcs[1] = 7
    entry.reset_reads()
    assert entry.read_epoch == Epoch.bottom()
    assert entry.readers is None
    assert entry.read_pcs == {}


def test_entry_at_is_one_record_per_cell_whoever_asks():
    """``entry_at(block, offset)`` allocates one record per cell, with
    ``block < 0`` for global memory; asking again, or ``peek`` at its
    location, finds that record."""
    locs = [global_loc(0), global_loc(PAGE_BYTES - 4), global_loc(PAGE_BYTES),
            global_loc(-4), shared_loc(0, 16), shared_loc(1, 16)]
    shadow = ShadowMemory(LAYOUT)
    for loc in locs:
        entry = shadow.entry_at(loc.block, loc.offset)
        assert shadow.entry_at(loc.block, loc.offset) is entry
        assert shadow.peek(loc) is entry
    assert shadow.stats.entries == len(locs)
    assert shadow.stats.global_pages == 3  # pages -1, 0 and 1


# ----------------------------------------------------------------------
# Range cells: structure
# ----------------------------------------------------------------------
def _written(shadow, block, start, lanes, step=4, tid0=0, clock=1, pc=7):
    """Store a coalesced write as the detector does: tile, then fill."""
    (cell,) = shadow.tile(block, start, start + lanes * step, step)
    cell.write_clock, cell.write_delta = clock, tid0 - start // step
    cell.write_pc, cell.group = pc, (0, 0)
    cell.values, cell.value_delta = list(range(100, 100 + lanes)), -(start // step)
    return cell


def test_a_coalesced_access_is_one_stored_cell():
    shadow = ShadowMemory(LAYOUT)
    cell = _written(shadow, -1, 64, 8)
    assert isinstance(cell, RangeCell) and len(cell) == 8
    stats = shadow.stats
    assert (stats.entries, stats.words, stats.range_splits) == (1, 8, 0)
    assert stats.modeled_bytes == 8 * RECORD_BYTES  # the paper's accounting
    # The same interval again is the same cell, uncut.
    assert shadow.tile(-1, 64, 96, 4) == [cell]
    assert shadow.stats.range_splits == 0


def test_a_partial_last_warps_coalesced_row_is_one_stored_cell():
    """The fused loop takes a warp's mask as full by its live lanes (8
    here), not by the warp size."""
    layout = GridLayout(num_blocks=1, threads_per_block=40, warp_size=32)
    tids = range(32, 40)
    record = LogRecord(kind=RecordKind.STORE, warp=1, active=frozenset(tids),
                       addrs={t: (Space.GLOBAL, 4 * t) for t in tids},
                       values={t: t for t in tids}, width=4, pc=3)
    detector = BarracudaDetector(layout)
    detector.process_columnar(ColumnarBatch.from_records([record]))
    stats = detector.shadow.stats
    assert (stats.entries, stats.words) == (1, 8)


def test_a_word_inside_a_range_is_the_record_its_lane_would_have_left():
    shadow = ShadowMemory(LAYOUT)
    cell = _written(shadow, 0, 16, 4, tid0=4, clock=3)
    cell.read_clock, cell.read_delta, cell.read_pc = 5, 1 - 16 // 4, 9
    peeked = shadow.peek(shared_loc(0, 24))
    assert shadow.stats.entries == 1  # peek never restructures
    entry = shadow.entry_at(0, 24)  # word 2 of 4: split out of the middle
    assert _snapshot(entry) == _snapshot(peeked)
    assert entry.write_epoch == Epoch(3, 6) and entry.last_value == 102
    assert (entry.write_pc, entry.last_group, entry.atomic) == (7, (0, 0), False)
    assert entry.read_epoch == Epoch(5, 3) and entry.read_pcs == {3: 9}
    assert shadow.entry_at(0, 24) is entry
    stats = shadow.stats
    assert (stats.entries, stats.words, stats.range_splits) == (3, 4, 1)
    # The halves kept their meaning: same tids, same values.
    assert shadow.peek(shared_loc(0, 20)).write_epoch == Epoch(3, 5)
    assert shadow.peek(shared_loc(0, 28)).last_value == 103
    # Off the cell's grid is another cell altogether.
    assert shadow.peek(shared_loc(0, 21)) is None


def test_a_straddling_interval_cuts_at_its_two_ends_and_fills_the_gap():
    shadow = ShadowMemory(LAYOUT)
    left = _written(shadow, -1, 0, 4)
    right = _written(shadow, -1, 24, 4, tid0=4)
    word = shadow.entry_at(-1, 20)
    pieces = shadow.tile(-1, 8, 32, 4)
    assert [(p.start, p.end) if isinstance(p, RangeCell) else p
            for p in pieces] == [(8, 16), (16, 20), (20, word), (24, 32)]
    assert left.end == 8 and pieces[0].write_clock == 1
    assert pieces[1].write_clock == 0  # never touched: a bottom cell
    assert pieces[3].start == 24 and right.end == 32
    stats = shadow.stats
    assert (stats.entries, stats.words, stats.range_splits) == (6, 10, 2)
    # A store that covers pieces 0-1 fuses them back into one cell.
    fused = shadow.fuse(-1, pieces[0], pieces[1])
    assert (fused.start, fused.end) == (8, 20)
    assert shadow.stats.entries == 5
    # Materialising hands out the words, in address order.
    entries = shadow.materialize(-1, left)
    assert [offset for offset, _ in entries] == [0, 4]
    assert shadow.peek(global_loc(4)) is entries[1][1]
    assert shadow.stats.words == 10


def test_an_interval_across_a_global_page_is_not_tiled():
    shadow = ShadowMemory(LAYOUT)
    assert shadow.tile(-1, PAGE_BYTES - 8, PAGE_BYTES + 8, 4) is None
    assert shadow.tile(0, PAGE_BYTES - 8, PAGE_BYTES + 8, 4) is not None
    assert shadow.stats.global_pages == 0


# ----------------------------------------------------------------------
# Range cells: lossless against the per-word store
# ----------------------------------------------------------------------
_RANGED_LAYOUT = GridLayout(num_blocks=2, threads_per_block=16, warp_size=8)


def _snapshot(entry):
    """Every field the access rules can consult."""
    if entry.readers is not None:
        readers = dict(entry.readers.items())
    elif entry.read_epoch.clock:
        readers = {entry.read_epoch.tid: entry.read_epoch.clock}
    else:
        readers = {}
    return (
        entry.write_epoch, entry.atomic, entry.read_epoch,
        entry.readers is None, readers, entry.last_value, entry.last_group,
        entry.write_pc, {tid: entry.read_pcs.get(tid) for tid in readers},
    )


def _covered(shadow):
    """``Location`` of every per-word record of a store with no ranges."""
    for page, table in shadow._global_pages.items():
        assert not table.spans
        yield from (Location(Space.GLOBAL, offset) for offset in table.words)
    for block, table in shadow._shared.items():
        assert not table.spans
        yield from (Location(Space.SHARED, offset, block)
                    for offset in table.words)


@st.composite
def _steps(draw):
    """Abstract steps; ``_records_of`` gives them addresses in cells.

    Weighted towards what makes ranges meet: mostly whole-warp coalesced
    rows over a dozen words, so rows of different warps overlap, shift
    by a word or two, and are cut by the occasional scattered row."""
    steps = []
    for _ in range(draw(st.integers(min_value=2, max_value=16))):
        shape = draw(st.sampled_from(
            ["coalesced"] * 6 + ["shifted", "broadcast", "scattered",
                                 "touch", "barrier", "branch"]))
        first = draw(st.sampled_from([0, 0, 0, 0, 1, 3]))
        steps.append(dict(
            shape=shape, first=first,
            warp=draw(st.integers(min_value=0, max_value=3)),
            last=draw(st.sampled_from([7, 7, 7, 7, 6, 4])),
            kind=draw(st.sampled_from(
                [RecordKind.LOAD, RecordKind.LOAD, RecordKind.STORE,
                 RecordKind.STORE, RecordKind.STORE, RecordKind.ATOMIC])),
            shared=draw(st.booleans()),
            word=draw(st.integers(min_value=0, max_value=12)),
            scatter=draw(st.lists(st.integers(min_value=0, max_value=19),
                                  min_size=8, max_size=8)),
            value=draw(st.integers(min_value=0, max_value=1)),
            then=draw(st.sets(st.integers(min_value=0, max_value=7),
                              min_size=1)),
            pc=draw(st.integers(min_value=0, max_value=9)),
        ))
    return steps


def _records_of(steps, cell):
    """The record stream of ``steps`` at cell size ``cell``; a ``touch``
    step comes out as a bare ``(block, offset)``."""
    phase = {}  # warp -> "then" | "else" while inside a branch
    for step in steps:
        warp, shape, pc = step["warp"], step["shape"], step["pc"]
        tids = range(8 * warp, 8 * warp + 8)
        if shape == "touch":
            yield (warp // 2 if step["shared"] else -1, cell * step["word"])
        elif shape == "barrier":
            # One in two is divergent (some threads of ``warp`` missing):
            # its participants deviate and the block's other warps get
            # lane entries — full active masks that are not CONVERGED.
            block = warp // 2
            missing = {tids[i] for i in step["then"]} if step["value"] else set()
            if not any(w // 2 == block for w in phase):
                yield LogRecord(
                    RecordKind.BARRIER, block,
                    frozenset(range(16 * block, 16 * block + 16)) - missing,
                    pc=pc)
        elif shape == "branch":
            if warp not in phase:
                phase[warp] = "then"
                yield LogRecord(
                    RecordKind.BRANCH_IF, warp, frozenset(tids),
                    then_mask=frozenset(tids[i] for i in step["then"]), pc=pc)
            elif phase[warp] == "then":
                phase[warp] = "else"
                yield LogRecord(RecordKind.BRANCH_ELSE, warp, frozenset(), pc=pc)
            else:
                del phase[warp]
                yield LogRecord(RecordKind.BRANCH_FI, warp, frozenset(), pc=pc)
        else:
            lanes = tids[step["first"]:step["last"] + 1]
            space = Space.SHARED if step["shared"] else Space.GLOBAL
            if shape == "scattered":
                addrs = {t: cell * step["scatter"][t % 8] for t in lanes}
            elif shape == "broadcast":
                addrs = {t: cell * step["word"] for t in lanes}
            else:
                # Lane i on word + i; "shifted" is one byte off the grid
                # (only a difference when cells are wider than a byte).
                base = cell * step["word"] + (shape == "shifted")
                addrs = {t: base + cell * i for i, t in enumerate(lanes)}
            values = ({t: step["value"] + (t % 2) for t in lanes}
                      if step["kind"] is RecordKind.STORE else {})
            yield LogRecord(
                step["kind"], warp, frozenset(lanes),
                addrs={t: (space, a) for t, a in addrs.items()},
                values=values, width=cell, pc=pc)


@given(steps=_steps(), cell=st.sampled_from([1, 2, 4, 8]))
def test_ranged_store_equals_per_word_store_after_every_step(steps, cell):
    """Lossless: whatever mix of range accesses, per-lane accesses and
    per-word touches came before, every covered word of the ranged store
    is, field by field, the record of a store driven only through
    ``entry_at`` — and the two detectors have reported the same."""
    config = DetectorConfig(granularity_bytes=cell)
    ranged = BarracudaDetector(_RANGED_LAYOUT, config)
    # Provenance keeps the fused loop lane by lane: the per-word store.
    plain = BarracudaDetector(_RANGED_LAYOUT, DetectorConfig(
        granularity_bytes=cell, provenance_depth=1))
    for item in _records_of(steps, cell):
        if isinstance(item, tuple):
            ranged.shadow.entry_at(*item)
            plain.shadow.entry_at(*item)
        else:
            ranged.process_columnar(ColumnarBatch.from_records([item]), cell)
            for op in record_to_ops(item, _RANGED_LAYOUT, cell):
                plain.process(op)
        for loc in _covered(plain.shadow):
            assert (_snapshot(ranged.shadow.peek(loc))
                    == _snapshot(plain.shadow.peek(loc))), loc
        assert ranged.shadow.stats.words == plain.shadow.stats.words
        assert ranged.shadow.stats.global_pages == plain.shadow.stats.global_pages
        assert ranged.reports.races == plain.reports.races
    assert (ranged.reports.filtered_same_value
            == plain.reports.filtered_same_value)
    assert ranged.ops_processed == plain.ops_processed
    assert ranged.clocks.joins == plain.clocks.joins


def test_the_property_reaches_ranges_splits_and_the_per_lane_handoff():
    """A fixed stream through the same harness, with the structure it
    must produce spelled out (so the property above is not vacuous)."""
    warp0, warp1 = range(0, 8), range(8, 16)

    def row(kind, warp, tids, word, values=None):
        return LogRecord(
            kind, warp, frozenset(tids),
            addrs={t: (Space.SHARED, 4 * (word + i)) for i, t in enumerate(tids)},
            values={t: values + i for i, t in enumerate(tids)} if values else {},
            width=4, pc=1)

    detector = BarracudaDetector(_RANGED_LAYOUT)

    def feed(*records):
        detector.process_columnar(ColumnarBatch.from_records(records), 4)
        return detector.shadow.stats

    stats = feed(row(RecordKind.STORE, 0, warp0, 0, values=10),
                 row(RecordKind.STORE, 1, warp1, 8, values=20))
    assert (stats.entries, stats.words, stats.range_splits) == (2, 16, 0)
    stats = feed(LogRecord(RecordKind.BARRIER, 0, frozenset(range(16))))
    # The misaligned-by-one neighbour load: two cells cut, nothing reported.
    stats = feed(row(RecordKind.LOAD, 0, warp0, 1))
    assert (stats.entries, stats.words, stats.range_splits) == (4, 16, 2)
    assert detector.reports.races == []
    # The same store again is covered (own epochs): the cut cells fuse.
    stats = feed(row(RecordKind.STORE, 0, warp0, 0, values=10))
    assert (stats.entries, stats.words) == (3, 16)
    # Warp 1 overwrites warp 0's words with no barrier in between: the
    # uncovered piece is materialised and every lane reports.
    stats = feed(row(RecordKind.STORE, 1, warp1, 0, values=30))
    assert len(detector.reports.races) == 8
    assert [r.current_tid for r in detector.reports.races] == list(warp1)
    assert (stats.entries, stats.words) == (2 + 8, 16)
