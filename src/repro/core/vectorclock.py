"""Vector clocks and epochs (paper §3.3).

A :class:`VectorClock` maps thread ids to logical timestamps.  Following
FastTrack, an :class:`Epoch` ``c@t`` is a degenerate vector clock holding a
timestamp for a single thread; epochs compare against vector clocks in O(1).

Thread ids here are the globally-unique 64-bit TIDs computed by the
instrumentation prologue (§4.1); the compression machinery in
:mod:`repro.core.ptvc` exploits their warp/block structure, but this module
is deliberately structure-agnostic so it can serve as the uncompressed
reference representation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple


class Epoch:
    """An epoch ``c@t``: timestamp ``clock`` for thread ``tid``, 0 elsewhere.

    Epochs are immutable and hashable so they can live in shadow-memory
    records and be shared freely.
    """

    __slots__ = ("clock", "tid")

    def __init__(self, clock: int, tid: int) -> None:
        if clock < 0:
            raise ValueError(f"epoch clock must be non-negative, got {clock}")
        self.clock = clock
        self.tid = tid

    @staticmethod
    def bottom() -> "Epoch":
        """The minimal epoch ``0@t0`` (written ⊥e in the paper).

        Returns a shared instance: epochs are immutable, and shadow
        entries reset their read metadata to bottom on every write, so
        interning the one bottom value saves an allocation per reset.
        """
        return _BOTTOM

    def leq(self, vc: "VectorClock") -> bool:
        """``c@t ⪯ V`` iff ``c <= V(t)`` — the O(1) FastTrack comparison."""
        return self.clock <= vc.get(self.tid)

    def leq_epoch(self, other: "Epoch") -> bool:
        """``c@t ⪯ c'@t'`` viewed as vector clocks."""
        if self.clock == 0:
            return True
        return self.tid == other.tid and self.clock <= other.clock

    def as_vector_clock(self) -> "VectorClock":
        """Inflate this epoch into an explicit vector clock."""
        if self.clock == 0:
            return VectorClock()
        return VectorClock({self.tid: self.clock})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Epoch):
            return NotImplemented
        if self.clock == 0 and other.clock == 0:
            return True
        return self.clock == other.clock and self.tid == other.tid

    def __hash__(self) -> int:
        if self.clock == 0:
            return hash((0, 0))
        return hash((self.clock, self.tid))

    def __repr__(self) -> str:
        return f"{self.clock}@{self.tid}"


#: The interned bottom epoch handed out by :meth:`Epoch.bottom`.
_BOTTOM = Epoch(0, 0)


class VectorClock:
    """A sparse vector clock: absent entries are implicitly 0.

    The sparse representation is what makes million-thread grids tractable;
    a dense array per thread would need terabytes (paper §1, §4.3.1).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Dict[int, int]] = None) -> None:
        # Drop explicit zeros so equality and iteration are canonical.
        if entries:
            self._entries = {t: c for t, c in entries.items() if c > 0}
        else:
            self._entries = {}

    @staticmethod
    def bottom() -> "VectorClock":
        """The minimal vector clock ⊥v (all zeros)."""
        return VectorClock()

    def get(self, tid: int) -> int:
        """The timestamp this clock records for thread ``tid``."""
        return self._entries.get(tid, 0)

    def set(self, tid: int, clock: int) -> None:
        """Destructively set ``V(tid) = clock``."""
        if clock > 0:
            self._entries[tid] = clock
        else:
            self._entries.pop(tid, None)

    def increment(self, tid: int) -> None:
        """``inc_t``: bump this clock's own entry for ``tid``."""
        self._entries[tid] = self._entries.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """``V ⊔ V'`` computed in place (pointwise max)."""
        for tid, clock in other._entries.items():
            if clock > self._entries.get(tid, 0):
                self._entries[tid] = clock

    def join_epoch(self, epoch: Epoch) -> None:
        """Join a single epoch into this clock."""
        if epoch.clock > self._entries.get(epoch.tid, 0):
            self._entries[epoch.tid] = epoch.clock

    def joined(self, other: "VectorClock") -> "VectorClock":
        """``V ⊔ V'`` as a new clock, leaving both operands untouched."""
        result = self.copy()
        result.join(other)
        return result

    def leq(self, other: "VectorClock") -> bool:
        """``V ⊑ V'`` iff ``V(t) <= V'(t)`` for every thread ``t``."""
        for tid, clock in self._entries.items():
            if clock > other._entries.get(tid, 0):
                return False
        return True

    def epoch_of(self, tid: int) -> Epoch:
        """``E(t)``: the epoch ``C_t(t)@t`` for thread ``tid``."""
        return Epoch(self.get(tid), tid)

    def copy(self) -> "VectorClock":
        clone = VectorClock()
        clone._entries = dict(self._entries)
        return clone

    def items(self) -> Iterable[Tuple[int, int]]:
        """The non-zero (tid, clock) pairs."""
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{c}" for t, c in sorted(self._entries.items()))
        return f"VC{{{inner}}}"


def join_all(clocks: Iterable[VectorClock]) -> VectorClock:
    """Join an arbitrary collection of vector clocks into a fresh clock."""
    result = VectorClock()
    for clock in clocks:
        result.join(clock)
    return result
