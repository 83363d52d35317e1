"""Warp-granularity log records (paper §4.2, Figure 6).

Log records are "modeled closely on the trace operations ... except that,
for efficiency, a record contains the operation for an entire warp".
Each record identifies the warp, the operation, a 32-bit active mask, and
one address slot per lane; the paper's records are a fixed
``16 + 8 * 32 = 272`` bytes.

Deviation note: our store records additionally carry the stored values,
which the host detector uses for the benign same-value intra-warp filter
(§3.3.1).  The paper's record layout has no value fields (its filter
works on the device side); we keep the 272-byte figure for queue-capacity
accounting and document the extra payload here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import FrozenSet, List, Mapping, Optional, Tuple

from .trace.layout import GridLayout
from .trace.operations import (
    AcqRel,
    Acquire,
    AnyOp,
    Atomic,
    Barrier,
    Else,
    EndInsn,
    Fi,
    If,
    Location,
    Read,
    Release,
    Scope,
    Space,
    Write,
)

#: Modeled size of one record in GPU memory (Figure 6).
RECORD_BYTES = 16 + 8 * 32

#: Widest access one lane can log: ``type_width * vector_count`` tops out
#: at a ``.v4.b64`` (32 bytes).  Loaders reject memory rows outside
#: ``1..MAX_ACCESS_BYTES``: the width sizes the cell expansion below.
MAX_ACCESS_BYTES = 32

#: Sentinel block id carried by a grid-wide (cooperative) barrier
#: record: BARRIER records put the block id in the ``warp`` field, and a
#: grid sync belongs to every block at once.  All barrier consumers
#: treat a negative block as "the whole grid".
GRID_BARRIER_BLOCK = -1


class RecordKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    ACQUIRE = "acquire"
    RELEASE = "release"
    ACQREL = "acqrel"
    BRANCH_IF = "if"
    BRANCH_ELSE = "else"
    BRANCH_FI = "fi"
    BARRIER = "bar"


#: Kinds that carry per-lane addresses.
MEMORY_KINDS = frozenset(
    {
        RecordKind.LOAD,
        RecordKind.STORE,
        RecordKind.ATOMIC,
        RecordKind.ACQUIRE,
        RecordKind.RELEASE,
        RecordKind.ACQREL,
    }
)


#: The thread-level operation each lane of a memory record expands to.
_THREAD_OP = {
    RecordKind.LOAD: Read,
    RecordKind.STORE: Write,
    RecordKind.ATOMIC: Atomic,
    RecordKind.ACQUIRE: Acquire,
    RecordKind.RELEASE: Release,
    RecordKind.ACQREL: AcqRel,
}
_SYNC_KINDS = frozenset(
    {RecordKind.ACQUIRE, RecordKind.RELEASE, RecordKind.ACQREL})


@dataclass(frozen=True)
class LogRecord:
    """One queue entry: a whole warp instruction (or block barrier)."""

    kind: RecordKind
    warp: int  # global warp id; for BARRIER records, the block id
    active: FrozenSet[int]  # global TIDs active for this operation
    #: Per-TID (space, address); empty for control-flow records.  A
    #: dict, or a read-only view of a batch row (``ColumnarBatch.record``).
    addrs: Mapping[int, Tuple[Space, int]] = field(default_factory=dict)
    #: Per-TID stored values (STORE records only; see module note).
    values: Mapping[int, Optional[int]] = field(default_factory=dict)
    #: Scope of ACQUIRE/RELEASE/ACQREL records.
    scope: Optional[Scope] = None
    #: For BRANCH_IF: the then-path mask (``active`` is the full split set).
    then_mask: FrozenSet[int] = frozenset()
    #: Access width in bytes (memory records).
    width: int = 4
    pc: int = -1

    def size_bytes(self) -> int:
        """The modeled on-device size of this record."""
        return RECORD_BYTES


@lru_cache(maxsize=4096)
def _sorted_mask(active: FrozenSet[int]) -> Tuple[int, ...]:
    """Sorted TIDs of an active mask, memoized.

    The simulator interns active masks (the same frozenset object backs
    every record of a warp's stable mask), so the expansion loop below
    hits this cache on nearly every record instead of re-sorting.
    """
    return tuple(sorted(active))


def cell_offsets(addr: int, width: int, granularity: int) -> range:
    """Offsets of the shadow cells covering ``[addr, addr + width)``.

    The only statement of which cells an access touches.  With
    ``granularity`` equal to the access width and aligned accesses (the
    common CUDA case, §4.3.3) this is a single cell; with byte
    granularity it is one cell per byte — the paper's fully general
    mode, which catches partially-overlapping sub-word accesses at the
    cost of more metadata.
    """
    return range(addr - addr % granularity, addr + max(width, 1), granularity)


def record_to_ops(
    record: LogRecord, layout: GridLayout, granularity: int = 4
) -> List[AnyOp]:
    """Expand one warp-level record into the §3.1 trace operations.

    Memory records become one thread-level operation per touched shadow
    cell per active lane, followed by one ``endi``; control-flow records
    map one-to-one.  ``granularity`` is the shadow-cell size in bytes
    (4 by default, matching the benchmarks' aligned word accesses; 1 for
    the paper's fully general byte mode).
    """
    kind = record.kind
    if kind is RecordKind.BARRIER:
        return [Barrier(block=record.warp, active=record.active, pc=record.pc)]
    if kind is RecordKind.BRANCH_IF:
        return [
            If(
                warp=record.warp,
                then_mask=record.then_mask,
                else_mask=record.active - record.then_mask,
                pc=record.pc,
            )
        ]
    if kind is RecordKind.BRANCH_ELSE:
        return [Else(warp=record.warp, pc=record.pc)]
    if kind is RecordKind.BRANCH_FI:
        return [Fi(warp=record.warp, pc=record.pc)]

    ops: List[AnyOp] = []
    append = ops.append
    addrs = record.addrs
    pc = record.pc
    width = record.width
    make = _THREAD_OP[kind]
    store = kind is RecordKind.STORE
    values_get = record.values.get
    sync = kind in _SYNC_KINDS
    scope = record.scope
    block_of = layout.block_of
    shared = Space.SHARED
    for tid in _sorted_mask(record.active):
        space, addr = addrs[tid]
        block = block_of(tid) if space is shared else -1
        for offset in cell_offsets(addr, width, granularity):
            loc = Location(space, offset, block)
            if store:
                append(make(tid, loc, values_get(tid), pc=pc))
            elif sync:
                append(make(tid, loc, scope, pc=pc))
            else:
                append(make(tid, loc, pc=pc))
    ops.append(EndInsn(warp=record.warp, amask=record.active, pc=pc))
    return ops
