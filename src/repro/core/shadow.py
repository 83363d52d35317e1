"""Shadow memory: per-location race-detection metadata (§4.3.3, Figure 8).

Each tracked byte of GPU memory has a shadow record holding the last-write
epoch (with its atomic bit), the last-read epoch or — after concurrent
reads — a sparse map from TIDs to clocks, and three attribute flags
(``read_shared``, ``sync_loc``, ``global_mem``).  The paper stores 32
bytes of host metadata per GPU byte; we model the same layout and account
for it in :class:`ShadowStats` so the memory-overhead numbers of the
evaluation can be regenerated.  (The three flags are part of the paper's
layout only: here the map form *is* ``readers is not None``, a cell's
table says which space it is in, and synchronization locations live in
:mod:`repro.core.syncmap` — nothing would read them.)

Global memory allocations can happen while a kernel runs, so global
shadow memory is allocated on demand through a page table whose pages
each cover 1 MiB of device memory.  Shared memory is small and its size
is known at launch, so its shadow is conceptually preallocated per block
(§4.3.3); we model that by tracking shared locations in per-block tables.

Ranged cells.  PTVC compression (§4.3.1) stores one clock for a warp
whose threads agree; a :class:`RangeCell` is the same idea applied to
shadow memory.  A coalesced access by a converged warp — lane ``i``
touches word ``a0 + i·step`` at the warp's one clock — is stored as one
cell ``[a0, a0 + n·step)`` instead of ``n`` :class:`ShadowEntry` objects.
:meth:`RangeCell.entry` is the whole meaning of a range: the per-word
record the lane-by-lane history would have produced.  A range splits
lazily — at the ends of an overlapping range access, or one word at a
time when :meth:`ShadowMemory.entry_at` is asked for a word inside it —
exactly as a CONVERGED warp falls to DIVERGED.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..trace.layout import GridLayout
from ..trace.operations import Location
from .vectorclock import Epoch, VectorClock

#: Bytes of device memory covered by one shadow page.
PAGE_BYTES = 1 << 20

#: Modeled host bytes per shadow record (28 bytes padded to 32, Figure 8).
RECORD_BYTES = 32

_BOTTOM = Epoch.bottom()


class ShadowEntry:
    """The metadata of one memory location (Figure 8).

    ``read_epoch`` and ``readers`` are mutually exclusive: the epoch form
    is used while reads are totally ordered, the map form (a sparse VC)
    after concurrent reads.  ``last_value``, ``last_group`` (the writing
    warp instruction) and the pcs are diagnostics, for same-value
    filtering and race reports.  One is allocated per touched word, so
    this is a slotted class with a plain constructor.
    """

    __slots__ = ("write_epoch", "atomic", "read_epoch", "readers",
                 "last_value", "last_group", "write_pc", "read_pcs")

    def __init__(self) -> None:
        self.write_epoch: Epoch = _BOTTOM
        self.atomic = False
        self.read_epoch: Optional[Epoch] = _BOTTOM
        self.readers: Optional[VectorClock] = None
        self.last_value: Optional[int] = None
        self.last_group: Tuple[int, int] = (-1, -1)
        self.write_pc = -1
        self.read_pcs: Dict[int, int] = {}

    def inflate_reads(self, keep: Epoch) -> None:
        """READINFLATE: switch the read metadata from epoch to map form."""
        vc = VectorClock()
        vc.join_epoch(keep)
        self.readers = vc
        self.read_epoch = None

    def reset_reads(self) -> None:
        """Writes and atomics clear the read metadata (WRITE*/ATOM* rules)."""
        self.read_epoch = _BOTTOM
        self.readers = None
        self.read_pcs.clear()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"ShadowEntry({fields})"


class RangeCell:
    """The shadow records of the words ``start, start + step, … < end``,
    all last written by one coalesced store and last read by one
    coalesced load.

    Word ``offset`` has index ``offset // step``; its writer is thread
    ``index + write_delta`` at ``write_clock`` (0: never written) storing
    ``values[index + value_delta]``, its reader thread ``index +
    read_delta`` at ``read_clock`` (0: never read).  Anchoring tids and
    values to the word index, not to ``start``, is what makes
    :meth:`split` O(1): both halves keep every field but one bound.
    """

    __slots__ = (
        "start", "end", "step",
        "write_clock", "write_delta", "write_pc", "group", "values",
        "value_delta", "read_clock", "read_delta", "read_pc",
    )

    def __init__(self, start: int, end: int, step: int) -> None:
        self.start = start
        self.end = end
        self.step = step
        self.write_clock = 0
        self.write_delta = 0
        self.write_pc = -1
        self.group: Tuple[int, int] = (-1, -1)
        self.values: Sequence[int] = ()
        self.value_delta = 0
        self.read_clock = 0
        self.read_delta = 0
        self.read_pc = -1

    def __len__(self) -> int:
        return (self.end - self.start) // self.step

    def split(self, at: int) -> "RangeCell":
        """Shrink this cell to ``[start, at)`` and return ``[at, end)``."""
        right = RangeCell(at, self.end, self.step)
        right.write_clock = self.write_clock
        right.write_delta = self.write_delta
        right.write_pc = self.write_pc
        right.group = self.group
        right.values = self.values
        right.value_delta = self.value_delta
        right.read_clock = self.read_clock
        right.read_delta = self.read_delta
        right.read_pc = self.read_pc
        self.end = at
        return right

    def entry(self, offset: int) -> ShadowEntry:
        """The record of word ``offset`` as the per-lane rules would have
        left it."""
        index = offset // self.step
        entry = ShadowEntry()
        if self.write_clock:
            entry.write_epoch = Epoch(self.write_clock, index + self.write_delta)
            entry.last_value = self.values[index + self.value_delta]
            entry.last_group = self.group
            entry.write_pc = self.write_pc
        if self.read_clock:
            reader = index + self.read_delta
            entry.read_epoch = Epoch(self.read_clock, reader)
            entry.read_pcs[reader] = self.read_pc
        return entry


#: What :meth:`ShadowMemory.tile` hands back for one stretch of a range:
#: a range cell, or one per-word record with its offset.
Piece = Union[RangeCell, Tuple[int, ShadowEntry]]


class _Table:
    """The cells of one global page or one block's shared memory: per-word
    records by offset, range cells in address order (``starts`` is the
    bisect key of ``spans``).  Stored cells never overlap."""

    __slots__ = ("words", "starts", "spans")

    def __init__(self) -> None:
        self.words: Dict[int, ShadowEntry] = {}
        self.starts: List[int] = []
        self.spans: List[RangeCell] = []

    def find(self, offset: int) -> int:
        """Index of the range cell holding word ``offset``, or -1.  An
        offset off the cell's grid (only a per-word caller can name one)
        is another cell, as it is another key of ``words``."""
        i = bisect_right(self.starts, offset) - 1
        if i >= 0:
            cell = self.spans[i]
            if offset < cell.end and (offset - cell.start) % cell.step == 0:
                return i
        return -1


@dataclass
class ShadowStats:
    """Footprint accounting for the shadow memory."""

    #: Stored cells: a per-word record or a range cell counts once.
    entries: int = 0
    #: Words those cells cover (what ``entries`` was before ranges).
    words: int = 0
    global_pages: int = 0
    #: Cuts made in stored range cells (an overlapping range access
    #: ending inside one, or one word split out of it).
    range_splits: int = 0

    @property
    def modeled_bytes(self) -> int:
        """Host bytes the paper's layout would use for these locations."""
        return self.words * RECORD_BYTES


class ShadowMemory:
    """All shadow records of one kernel launch."""

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        # Global: page table keyed by offset >> 20, pages allocated on
        # first access to any address they cover.
        self._global_pages: Dict[int, _Table] = {}
        # Shared: per-block tables (preallocated in the real system).
        self._shared: Dict[int, _Table] = {}
        self._range_splits = 0

    @property
    def stats(self) -> ShadowStats:
        """The current footprint (computed on request: O(stored cells))."""
        stats = ShadowStats(global_pages=len(self._global_pages),
                            range_splits=self._range_splits)
        for tables in (self._global_pages, self._shared):
            for table in tables.values():
                stats.entries += len(table.words) + len(table.spans)
                stats.words += len(table.words) + sum(map(len, table.spans))
        return stats

    def _table(self, block: int, offset: int) -> _Table:
        if block < 0:
            tables, key = self._global_pages, offset // PAGE_BYTES
        else:
            tables, key = self._shared, block
        table = tables.get(key)
        if table is None:
            table = tables[key] = _Table()
        return table

    # ------------------------------------------------------------------
    # Per-word access
    # ------------------------------------------------------------------
    def entry_at(self, block: int, offset: int) -> ShadowEntry:
        """The shadow record of cell ``(block, offset)``, allocating it if
        needed; ``block < 0`` addresses global memory.  A word inside a
        range cell is split out of it."""
        if block < 0:
            table = self._global_pages.get(offset // PAGE_BYTES)
        else:
            table = self._shared.get(block)
        if table is None:
            table = self._table(block, offset)
        entry = table.words.get(offset)
        if entry is None:
            if table.starts and (i := table.find(offset)) >= 0:
                entry = self._split_word(table, i, offset)
            else:
                entry = ShadowEntry()
            table.words[offset] = entry
        return entry

    def peek(self, loc: Location) -> Optional[ShadowEntry]:
        """The shadow record for ``loc`` if it exists, without allocating.

        Never restructures the store: a word inside a range cell comes
        back as a detached copy of its record.  Only tests call this
        (it is how they compare a ranged store with a per-word one
        without splitting every range)."""
        if loc.block < 0:
            table = self._global_pages.get(loc.offset // PAGE_BYTES)
        else:
            table = self._shared.get(loc.block)
        if table is None:
            return None
        entry = table.words.get(loc.offset)
        if entry is None and table.starts and (i := table.find(loc.offset)) >= 0:
            entry = table.spans[i].entry(loc.offset)
        return entry

    def _split_word(self, table: _Table, i: int, offset: int) -> ShadowEntry:
        """Take word ``offset`` out of range cell ``i`` (the caller stores
        the returned record)."""
        cell = table.spans[i]
        entry = cell.entry(offset)
        after = offset + cell.step
        if offset == cell.start:
            if after == cell.end:
                del table.starts[i], table.spans[i]
            else:
                cell.start = table.starts[i] = after
        else:
            if after < cell.end:
                table.starts.insert(i + 1, after)
                table.spans.insert(i + 1, cell.split(after))
            cell.end = offset
        self._range_splits += 1
        return entry

    # ------------------------------------------------------------------
    # Range access
    # ------------------------------------------------------------------
    def tile(self, block: int, start: int, end: int,
             step: int) -> Optional[List[Piece]]:
        """Make ``[start, end)`` exactly covered by stored cells and return
        them in address order.

        Range cells the interval overlaps are cut at its two ends, words
        nothing has touched yet are filled with bottom range cells, and
        per-word records come back as ``(offset, entry)``.  ``start`` is
        ``step``-aligned, and ``step`` is the one cell size of this
        shadow memory (a detector has one granularity).  ``None`` when
        the interval cannot be tiled (it crosses a global page): the
        caller goes word by word.
        """
        if block < 0 and start // PAGE_BYTES != (end - 1) // PAGE_BYTES:
            return None
        table = self._table(block, start)
        starts, spans = table.starts, table.spans
        i = bisect_right(starts, start) - 1
        if i < 0 or spans[i].end <= start:
            i += 1
        pieces: List[Piece] = []
        pos = start
        while pos < end:
            cell = spans[i] if i < len(starts) and starts[i] < end else None
            assert cell is None or cell.step == step
            if cell is not None and cell.start < pos:
                cell = cell.split(pos)
                i += 1
                starts.insert(i, pos)
                spans.insert(i, cell)
                self._range_splits += 1
            gap_end = end if cell is None else cell.start
            if pos < gap_end:
                i += self._fill(table, i, pos, gap_end, step, pieces)
                pos = gap_end
            if cell is not None:
                if cell.end > end:
                    starts.insert(i + 1, end)
                    spans.insert(i + 1, cell.split(end))
                    self._range_splits += 1
                pieces.append(cell)
                pos = cell.end
                i += 1
        return pieces

    def _fill(self, table: _Table, i: int, start: int, end: int, step: int,
              pieces: List[Piece]) -> int:
        """Tile the range-free stretch ``[start, end)``: the per-word
        records in it, bottom range cells (inserted from index ``i``)
        between them.  Returns the number of cells inserted."""
        words = table.words
        hits = sorted(words.keys() & range(start, end, step)) if words else []
        hits.append(end)
        inserted = 0
        for hit in hits:
            if start < hit:
                cell = RangeCell(start, hit, step)
                table.starts.insert(i + inserted, start)
                table.spans.insert(i + inserted, cell)
                pieces.append(cell)
                inserted += 1
            if hit < end:
                pieces.append((hit, words[hit]))
            start = hit + step
        return inserted

    def fuse(self, block: int, first: RangeCell, last: RangeCell) -> RangeCell:
        """Merge the adjacent stored range cells ``first … last`` into
        ``first`` (the caller is about to overwrite every word of them)."""
        if first is last:
            return first
        table = self._table(block, first.start)
        i = bisect_left(table.starts, first.start)
        j = bisect_left(table.starts, last.start, i)
        del table.starts[i + 1:j + 1], table.spans[i + 1:j + 1]
        first.end = last.end
        return first

    def materialize(self, block: int,
                    cell: RangeCell) -> List[Tuple[int, ShadowEntry]]:
        """Replace a stored range cell by the per-word records of its
        words; returns them with their offsets, in address order."""
        table = self._table(block, cell.start)
        i = bisect_left(table.starts, cell.start)
        del table.starts[i], table.spans[i]
        entries = [(offset, cell.entry(offset))
                   for offset in range(cell.start, cell.end, cell.step)]
        table.words.update(entries)
        return entries
