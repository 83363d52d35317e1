"""Synchronization-location metadata: the ``S_x`` map (§3.3, §4.3.3).

A location accessed with acquire and release operations is deemed a
*synchronization location*.  GPU code usually has few of them — many
programs have none — so instead of widening every shadow record they live
in their own map.

``S_x`` is conceptually a map from thread block to vector clock: the most
recent logical times at which threads of each block released ``x``.  Two
representation tricks keep the global-scope rules O(1):

* per-block clocks are stored sparsely (blocks that never synchronized on
  ``x`` hold the implicit bottom clock);
* a separate ``global_part`` accumulates global-scope releases, so
  RELGLOBAL — which logically sets *every* block's clock — touches one
  clock instead of one per block of a potentially 4000-block grid.  The
  effective per-block clock is ``blocks[b] ⊔ global_part``.

Clocks here are :class:`StructuredVC`, i.e. the same hierarchy-compressed
representation as PTVCs, as §4.3.3 prescribes.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..trace.layout import GridLayout
from .structured import StructuredVC

#: A location as the detector's rules carry it: ``(block, offset)`` with
#: ``block < 0`` for global memory — :meth:`ShadowMemory.entry_at`'s
#: address.  A :class:`~repro.trace.operations.Location` is built only
#: for a race report.
Cell = Tuple[int, int]


class SyncLocation:
    """The per-block release clocks of one synchronization location."""

    __slots__ = ("layout", "blocks", "global_part")

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.blocks: Dict[int, StructuredVC] = {}
        self.global_part = StructuredVC(layout)

    def release(self, block: int, clock: StructuredVC) -> None:
        """REL: fold ``clock`` into block ``block``'s slot (RELBLOCK), or,
        for ``block < 0``, into the global part every block's acquires
        read (RELGLOBAL).

        Joining (rather than overwriting) preserves every earlier release,
        matching the declarative §3.2 definition — see the note in
        :mod:`repro.core.reference`.
        """
        if block < 0:
            slot = self.global_part
        else:
            slot = self.blocks.get(block)
            if slot is None:
                slot = StructuredVC(self.layout)
                self.blocks[block] = slot
        slot.join(clock)

    def acquire(self, block: int) -> Iterator[StructuredVC]:
        """ACQ: the clocks an acquire joins — block ``block``'s slot
        (ACQBLOCK), or, for ``block < 0``, every block's (ACQGLOBAL) —
        and the global part."""
        if block < 0:
            yield from self.blocks.values()
        else:
            slot = self.blocks.get(block)
            if slot is not None:
                yield slot
        if not self.global_part.is_empty():
            yield self.global_part

    def entry_count(self) -> int:
        return self.global_part.entry_count() + sum(
            clock.entry_count() for clock in self.blocks.values()
        )


class SyncLocationMap:
    """All synchronization locations of one launch, by cell."""

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self._locations: Dict[Cell, SyncLocation] = {}

    def get(self, cell: Cell) -> SyncLocation:
        sync = self._locations.get(cell)
        if sync is None:
            sync = SyncLocation(self.layout)
            self._locations[cell] = sync
        return sync

    def is_sync_location(self, cell: Cell) -> bool:
        return cell in self._locations

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._locations)
