"""Shadow memory: per-location race-detection metadata (§4.3.3, Figure 8).

Each tracked byte of GPU memory has a shadow record holding the last-write
epoch (with its atomic bit), the last-read epoch or — after concurrent
reads — a sparse map from TIDs to clocks, and attribute flags.  The paper
stores 32 bytes of host metadata per GPU byte; we model the same layout
and account for it in :class:`ShadowStats` so the memory-overhead numbers
of the evaluation can be regenerated.

Global memory allocations can happen while a kernel runs, so global
shadow memory is allocated on demand through a page table whose pages
each cover 1 MiB of device memory.  Shared memory is small and its size
is known at launch, so its shadow is conceptually preallocated per block
(§4.3.3); we model that by tracking shared locations in per-block tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..trace.layout import GridLayout
from ..trace.operations import Location
from .vectorclock import Epoch, VectorClock

#: Bytes of device memory covered by one shadow page.
PAGE_BYTES = 1 << 20

#: Modeled host bytes per shadow record (28 bytes padded to 32, Figure 8).
RECORD_BYTES = 32


@dataclass
class ShadowEntry:
    """The metadata of one memory location (Figure 8).

    ``read_epoch`` and ``readers`` are mutually exclusive: the epoch form
    is used while reads are totally ordered, the map form (a sparse VC)
    after concurrent reads (``read_shared`` flag set).
    """

    write_epoch: Epoch = field(default_factory=Epoch.bottom)
    atomic: bool = False
    read_epoch: Optional[Epoch] = field(default_factory=Epoch.bottom)
    readers: Optional[VectorClock] = None
    read_shared: bool = False
    sync_loc: bool = False
    global_mem: bool = True
    # Diagnostics: last write's value, warp-instruction identity and pc
    # (for same-value filtering and race reports).
    last_value: Optional[int] = None
    last_group: Tuple[int, int] = (-1, -1)
    write_pc: int = -1
    read_pcs: Dict[int, int] = field(default_factory=dict)

    def inflate_reads(self, keep: Epoch) -> None:
        """READINFLATE: switch the read metadata from epoch to map form."""
        vc = VectorClock()
        vc.join_epoch(keep)
        self.readers = vc
        self.read_epoch = None
        self.read_shared = True

    def reset_reads(self) -> None:
        """Writes and atomics clear the read metadata (WRITE*/ATOM* rules)."""
        self.read_epoch = Epoch.bottom()
        self.readers = None
        self.read_shared = False
        self.read_pcs.clear()


@dataclass
class ShadowStats:
    """Footprint accounting for the shadow memory."""

    entries: int = 0
    global_pages: int = 0

    @property
    def modeled_bytes(self) -> int:
        """Host bytes the paper's layout would use for these locations."""
        return self.entries * RECORD_BYTES


class ShadowMemory:
    """All shadow records of one kernel launch."""

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        # Global: page table keyed by offset >> 20, pages allocated on
        # first access to any address they cover.
        self._global_pages: Dict[int, Dict[int, ShadowEntry]] = {}
        # Shared: per-block tables (preallocated in the real system).
        self._shared: Dict[int, Dict[int, ShadowEntry]] = {}
        self.stats = ShadowStats()

    def entry_at(self, block: int, offset: int) -> ShadowEntry:
        """The shadow record of cell ``(block, offset)``, allocating it if
        needed; ``block < 0`` addresses global memory."""
        if block < 0:
            table = self._global_pages.get(offset // PAGE_BYTES)
            if table is None:
                table = self._global_pages[offset // PAGE_BYTES] = {}
                self.stats.global_pages += 1
        else:
            table = self._shared.get(block)
            if table is None:
                table = self._shared[block] = {}
        entry = table.get(offset)
        if entry is None:
            entry = table[offset] = ShadowEntry(global_mem=block < 0)
            self.stats.entries += 1
        return entry

    def entry(self, loc: Location) -> ShadowEntry:
        """The shadow record for ``loc``, allocating it if needed."""
        return self.entry_at(loc.block, loc.offset)

    def peek(self, loc: Location) -> Optional[ShadowEntry]:
        """The shadow record for ``loc`` if it exists, without allocating."""
        if loc.block < 0:
            table = self._global_pages.get(loc.offset // PAGE_BYTES)
        else:
            table = self._shared.get(loc.block)
        return None if table is None else table.get(loc.offset)
