"""Trace operations (paper §3.1).

A program execution is modeled as a *trace*: a sequence of operations
abstracted from the stream of dynamic PTX instructions.  The operations
here are exactly those of the paper:

* ``rd(t, x)`` / ``wr(t, x)`` — thread-level memory accesses;
* ``endi(w)`` — end of a warp instruction (lockstep join/fork point);
* ``if(w)`` / ``else(w)`` / ``fi(w)`` — warp-level branch structure;
* ``bar(b)`` — block-wide barrier;
* ``atm(t, x)`` — standalone atomic read-modify-write;
* ``acq``/``rel``/``ar`` at block or global scope — synchronization
  operations inferred from fence + load/store/atomic idioms.

Write operations additionally carry the value written so that the detector
can filter "same-value" intra-warp write-write races, which the CUDA
documentation defines as benign (§3.3.1).

Operations and locations are values: hashable, compared by field, and
never assigned to after construction.  They are not ``frozen``
dataclasses because :func:`repro.columnar.rows_to_ops` builds one per
lane per row, and a frozen ``__init__`` pays ``object.__setattr__``
per field — more than the rest of the expansion put together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, Union


class Space(enum.Enum):
    """CUDA memory spaces relevant to race detection (paper §2).

    Local memory is thread-private and cannot race, so the instrumentation
    never logs it and it never appears in a trace.
    """

    GLOBAL = "global"
    SHARED = "shared"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Scope(enum.Enum):
    """Fence scope of a synchronization operation (§3.1).

    ``membar.cta`` yields BLOCK scope, ``membar.gl`` GLOBAL.  System-level
    fences are treated as global, as the paper focuses on intra-kernel
    races.
    """

    BLOCK = "block"
    GLOBAL = "global"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: ``Space.SHARED`` is a metaclass lookup; a location is built per lane.
_SHARED = Space.SHARED


@dataclass(unsafe_hash=True)
class Location:
    """One byte-granularity memory location.

    Shared memory is private to a thread block (paper §2), so a shared
    location is identified by ``(block, offset)``; for global locations
    ``block`` is -1.
    """

    space: Space
    offset: int
    block: int = -1

    def __post_init__(self) -> None:
        shared = self.space is _SHARED
        if shared is (self.block < 0) or self.block < -1:
            raise ValueError(
                "shared locations must name their block" if shared
                else "global locations must not name a block")

    def __str__(self) -> str:
        if self.space is _SHARED:
            return f"shared[b{self.block}][{self.offset:#x}]"
        return f"global[{self.offset:#x}]"


def global_loc(offset: int) -> Location:
    """Convenience constructor for a global-memory location."""
    return Location(Space.GLOBAL, offset)


def shared_loc(block: int, offset: int) -> Location:
    """Convenience constructor for a shared-memory location."""
    return Location(Space.SHARED, offset, block)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass(unsafe_hash=True)
class Op:
    """Base class for trace operations."""

    #: Static PTX location (instruction index) for diagnostics; -1 if unknown.
    pc: int = field(default=-1, kw_only=True)


@dataclass(unsafe_hash=True)
class Read(Op):
    """``rd(t, x)``: thread ``tid`` reads location ``loc``."""

    tid: int
    loc: Location

    def __str__(self) -> str:
        return f"rd(t{self.tid}, {self.loc})"


@dataclass(unsafe_hash=True)
class Write(Op):
    """``wr(t, x)``: thread ``tid`` writes ``value`` to ``loc``."""

    tid: int
    loc: Location
    value: Optional[int] = None

    def __str__(self) -> str:
        return f"wr(t{self.tid}, {self.loc})"


@dataclass(unsafe_hash=True)
class Atomic(Op):
    """``atm(t, x)``: standalone atomic read-modify-write (§3.3.2)."""

    tid: int
    loc: Location

    def __str__(self) -> str:
        return f"atm(t{self.tid}, {self.loc})"


@dataclass(unsafe_hash=True)
class EndInsn(Op):
    """``endi(w)``: end of one warp instruction.

    Joins the active threads of ``warp`` and forks them again, modeling
    lockstep execution (§3.3.1).  ``amask`` is the set of TIDs that were
    active when the instruction executed.
    """

    warp: int
    amask: FrozenSet[int]

    def __str__(self) -> str:
        return f"endi(w{self.warp})"


@dataclass(unsafe_hash=True)
class If(Op):
    """``if(w)``: warp ``warp`` begins a branch.

    ``then_mask``/``else_mask`` are the runtime split of the previously
    active threads (the ``splitActive`` oracle of the IF rule).  The then
    path executes first; the else mask is pushed deeper on the SIMT stack.
    """

    warp: int
    then_mask: FrozenSet[int]
    else_mask: FrozenSet[int]

    def __str__(self) -> str:
        return f"if(w{self.warp})"


@dataclass(unsafe_hash=True)
class Else(Op):
    """``else(w)``: warp ``warp`` switches to the else path."""

    warp: int

    def __str__(self) -> str:
        return f"else(w{self.warp})"


@dataclass(unsafe_hash=True)
class Fi(Op):
    """``fi(w)``: warp ``warp`` reconverges after a branch."""

    warp: int

    def __str__(self) -> str:
        return f"fi(w{self.warp})"


@dataclass(unsafe_hash=True)
class Barrier(Op):
    """``bar(b)``: block-wide barrier (``bar.sync`` / ``__syncthreads``).

    ``active`` is the set of TIDs that were active when the barrier
    executed; the BAR rule requires *all* threads of the block to be
    active, otherwise BARRACUDA reports barrier divergence (§3.3.2).
    """

    block: int
    active: FrozenSet[int]

    def __str__(self) -> str:
        return f"bar(b{self.block})"


@dataclass(unsafe_hash=True)
class Acquire(Op):
    """``acqBlk``/``acqGlb``: load + following fence (§3.1)."""

    tid: int
    loc: Location
    scope: Scope

    def __str__(self) -> str:
        suffix = "Blk" if self.scope is Scope.BLOCK else "Glb"
        return f"acq{suffix}(t{self.tid}, {self.loc})"


@dataclass(unsafe_hash=True)
class Release(Op):
    """``relBlk``/``relGlb``: fence + following store (§3.1)."""

    tid: int
    loc: Location
    scope: Scope

    def __str__(self) -> str:
        suffix = "Blk" if self.scope is Scope.BLOCK else "Glb"
        return f"rel{suffix}(t{self.tid}, {self.loc})"


@dataclass(unsafe_hash=True)
class AcqRel(Op):
    """``arBlk``/``arGlb``: atomic sandwiched between fences (§3.1)."""

    tid: int
    loc: Location
    scope: Scope

    def __str__(self) -> str:
        suffix = "Blk" if self.scope is Scope.BLOCK else "Glb"
        return f"ar{suffix}(t{self.tid}, {self.loc})"


#: Operations performed by a single thread (the types, for ``isinstance``).
THREAD_OPS = (Read, Write, Atomic, Acquire, Release, AcqRel)
ThreadOp = Union[Read, Write, Atomic, Acquire, Release, AcqRel]

#: Operations that access a data location for race-checking purposes.
#: Acquire/release operations touch *synchronization* locations which the
#: detector tracks separately (§4.3.3), so they are deliberately excluded.
MemoryAccess = (Read, Write, Atomic)

#: Operations that act as a write for conflict purposes.
WRITE_LIKE = (Write, Atomic)

AnyOp = Union[
    Read, Write, Atomic, EndInsn, If, Else, Fi, Barrier, Acquire, Release, AcqRel
]


def tids_of(op: AnyOp, layout=None) -> Tuple[int, ...]:
    """The set of thread ids an operation involves (``tids(a)`` in §3.4).

    Barrier-style operations involve every thread they synchronize; for
    ``else``/``fi`` the involved set depends on SIMT-stack state and is
    resolved by the consumer, so only the single-thread and explicit-mask
    cases are handled here.
    """
    if isinstance(op, THREAD_OPS):
        return (op.tid,)
    if isinstance(op, EndInsn):
        return tuple(sorted(op.amask))
    if isinstance(op, Barrier):
        return tuple(sorted(op.active))
    if isinstance(op, If):
        return tuple(sorted(op.then_mask | op.else_mask))
    if isinstance(op, (Else, Fi)):
        raise ValueError(
            "tids of else/fi depend on SIMT stack state; resolve via the "
            "trace's stack replay"
        )
    raise TypeError(f"unknown operation {op!r}")


def is_conflicting(a: ThreadOp, b: ThreadOp) -> bool:
    """Do two *data* accesses conflict (§3.2)?

    Both access the same location, at least one is a write, and they are
    not both atomic operations (atomics do not race with each other, but
    also do not imply synchronization).
    """
    if not isinstance(a, MemoryAccess) or not isinstance(b, MemoryAccess):
        return False
    if a.loc != b.loc:
        return False
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        return False
    return isinstance(a, WRITE_LIKE) or isinstance(b, WRITE_LIKE)
