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
from .trace.operations import AnyOp, Scope, Space

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

    Records read from a batch share the pool's interned frozensets, so
    :class:`repro.columnar.ColumnarBuilder` hits this cache on nearly
    every mask it interns instead of re-sorting.
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
    """Expand one warp-level record into the §3.1 trace operations: the
    operations :func:`repro.columnar.rows_to_ops` expands its row to."""
    from .columnar import ColumnarBatch, rows_to_ops

    return rows_to_ops(ColumnarBatch.from_records((record,)), layout,
                       granularity)
