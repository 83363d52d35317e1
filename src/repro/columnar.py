"""Columnar (struct-of-arrays) warp-batch event representation.

The per-record pipeline materializes one :class:`~repro.events.LogRecord`
dict-of-dicts per warp instruction and one trace-operation object per
lane — millions of small Python objects on a Table 1 sweep.  This module
restructures the stream as *columnar batches*: parallel flat arrays
(kind/warp/pc per record, tid/space/addr/value per lane) plus an
interned active-mask pool, so the detector's fused inner loop
(:meth:`repro.core.detector.BarracudaDetector.process_columnar`) walks
plain integer lists instead of allocating objects, and the binary
capture codec (:mod:`repro.runtime.replay`) serializes whole columns
with one stdlib ``array`` ``tobytes``/``frombytes`` call per column.

Lossless for every row the engine emits: each round-trips through
:meth:`ColumnarBatch.from_records` / :meth:`ColumnarBatch.to_records`
unchanged.  Any other row has no columns — the builder rejects it with a
one-line :class:`ReproError` — and :meth:`ColumnarBatch.check_layout`
rejects rows outside a launch, so a hostile capture fails where it enters.

:meth:`ColumnarBatch.to_records` rebuilds no lanes: a record's ``addrs``
and ``values`` are read-only views of its row, and the builder copies
the lanes of an unaltered row of a *checked* batch (one decoded and
validated, or one the builder or the engine made) by slice instead of
re-checking them lane by lane.

A launch's records are born here: the engine writes each one as a row
of the launch's :class:`RowLog` and the live queues carry row numbers,
so the host runs the fused loop over committed ranges of the batches
the engine wrote, with no record object in between.  The cold paths
(``--predict``, ``sweep``, the reference replay) expand rows to §3.1
operations in one place, :func:`rows_to_ops`; :func:`ops_to_rows` packs
a trace back into rows for the detector.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Mapping
from itertools import compress
from typing import (
    Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple, Union)

from .errors import ReproError, TraceError
from .events import (
    GRID_BARRIER_BLOCK,
    MAX_ACCESS_BYTES,
    MEMORY_KINDS,
    LogRecord,
    RecordKind,
    _sorted_mask,
    cell_offsets,
)
from .trace.layout import GridLayout
from .trace.operations import (
    THREAD_OPS, AnyOp, Barrier, Else, EndInsn, Fi, If, Location, Scope, Space)


def have_numpy() -> bool:
    # The codec is stdlib-only.  benchmarks/ledger/run.py and
    # codec_pure.py still read this; it goes when a ``benchmark`` issue
    # drops the ledger's pure-codec child.
    return False


#: Record kinds by column code.  The hot memory kinds occupy codes 0-2 so
#: the fused detector loop can gate on ``code <= KIND_ATOMIC``.
KINDS: Tuple[RecordKind, ...] = tuple(RecordKind)
KIND_CODE: Dict[RecordKind, int] = {kind: i for i, kind in enumerate(KINDS)}
KIND_LOAD = KIND_CODE[RecordKind.LOAD]
KIND_STORE = KIND_CODE[RecordKind.STORE]
KIND_ATOMIC = KIND_CODE[RecordKind.ATOMIC]
#: Codes 3-5 are the synchronization kinds (memory rows too: they carry
#: lanes), 6-9 the lane-less control kinds, BARRIER last.
KIND_ACQUIRE = KIND_CODE[RecordKind.ACQUIRE]
KIND_ACQREL = KIND_CODE[RecordKind.ACQREL]
KIND_BRANCH_IF = KIND_CODE[RecordKind.BRANCH_IF]
KIND_BRANCH_ELSE = KIND_CODE[RecordKind.BRANCH_ELSE]
KIND_BRANCH_FI = KIND_CODE[RecordKind.BRANCH_FI]
KIND_BARRIER = KIND_CODE[RecordKind.BARRIER]

SPACES: Tuple[Space, ...] = (Space.GLOBAL, Space.SHARED)
SPACE_CODE: Dict[Space, int] = {space: i for i, space in enumerate(SPACES)}
SCOPES: Tuple[Scope, ...] = (Scope.BLOCK, Scope.GLOBAL)
SCOPE_CODE: Dict[Scope, int] = {scope: i for i, scope in enumerate(SCOPES)}

_I64_MIN = -(1 << 63)
_I64_MAX = 1 << 63
_BIG_ENDIAN = sys.byteorder == "big"

#: Default records per batch on capture/streaming paths.
DEFAULT_BATCH_RECORDS = 512


def _fits_i64(value: int) -> bool:
    return _I64_MIN <= value < _I64_MAX


def _row_error(kind: RecordKind, warp: int, pc: int,
               problem: str) -> ReproError:
    """The one-line rejection of a row, named by kind, warp and pc."""
    where = "block" if kind is RecordKind.BARRIER else "warp"
    return ReproError(f"{kind.value} row ({where} {warp}, pc {pc}): {problem}")


def _check_i64(record: LogRecord, name: str,
               numbers: Collection[int]) -> None:
    if numbers and not (_fits_i64(min(numbers)) and _fits_i64(max(numbers))):
        bad = next(n for n in numbers if not _fits_i64(n))
        raise _row_error(record.kind, record.warp, record.pc,
                         f"{name} {bad} does not fit int64")


class _LaneView(Mapping):
    """A read-only map over one row's lane columns.

    The dict it stands for is built in bulk (a subclass's ``_build``) on
    the first read; every read method, ``repr`` and ``==`` are that
    dict's.  Until then the view is just ``(batch, row)``, which
    :meth:`ColumnarBuilder.append` copies by slice.
    """

    __slots__ = ("batch", "row", "_dict")

    def __init__(self, batch: "ColumnarBatch", row: int) -> None:
        self.batch = batch
        self.row = row
        self._dict: Optional[dict] = None

    def _mapping(self) -> dict:
        mapping = self._dict
        if mapping is None:
            starts = self.batch.lane_starts
            mapping = self._dict = self._build(
                starts[self.row], starts[self.row + 1])
        return mapping

    def __getitem__(self, key):
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self._mapping())

    def __contains__(self, key) -> bool:
        return key in self._mapping()

    def keys(self):
        return self._mapping().keys()

    def items(self):
        return self._mapping().items()

    def values(self):
        return self._mapping().values()

    def get(self, key, default=None):
        return self._mapping().get(key, default)

    def __eq__(self, other) -> bool:
        return self._mapping() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._mapping())


class _AddrsView(_LaneView):
    """``LogRecord.addrs`` of a batch row: tid -> (space, address)."""

    __slots__ = ()

    def _build(self, start: int, end: int) -> dict:
        batch = self.batch
        return dict(zip(batch.lane_tids[start:end], zip(
            map(SPACES.__getitem__, batch.lane_spaces[start:end]),
            batch.lane_addrs[start:end])))


class _ValuesView(_LaneView):
    """``LogRecord.values`` of a batch row: tid -> stored value."""

    __slots__ = ()

    def _build(self, start: int, end: int) -> dict:
        batch = self.batch
        has_value = batch.lane_has_value[start:end]
        return dict(zip(compress(batch.lane_tids[start:end], has_value),
                        compress(batch.lane_values[start:end], has_value)))


class ColumnarBatch:
    """A run of log records as parallel flat columns.

    Per-record columns (length ``len(self)``): ``kinds`` (column codes),
    ``warps``, ``pcs``, ``widths``, ``scopes`` (code or -1), ``mask_ids``
    and ``then_mask_ids`` (indices into the ``masks`` pool; -1 for "no
    then-mask").  ``lane_starts`` (length ``len(self) + 1``) prefixes the
    per-lane columns ``lane_tids`` / ``lane_spaces`` / ``lane_addrs`` /
    ``lane_has_value`` / ``lane_values``, which hold one entry per active
    lane of each memory record in ascending-tid order — exactly the
    order :func:`rows_to_ops` expands.

    Columns are plain Python lists of ints: the fused detector loop
    iterates them directly, while the binary codec
    converts to/from flat buffers wholesale.
    """

    __slots__ = (
        "kinds", "warps", "pcs", "widths", "scopes", "mask_ids",
        "then_mask_ids", "lane_starts", "lane_tids", "lane_spaces",
        "lane_addrs", "lane_has_value", "lane_values", "masks", "checked",
        "_mask_sets", "_mask_bits", "_bits_layout",
    )

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.warps: List[int] = []
        self.pcs: List[int] = []
        self.widths: List[int] = []
        self.scopes: List[int] = []
        self.mask_ids: List[int] = []
        self.then_mask_ids: List[int] = []
        self.lane_starts: List[int] = [0]
        self.lane_tids: List[int] = []
        self.lane_spaces: List[int] = []
        self.lane_addrs: List[int] = []
        self.lane_has_value: List[int] = []
        self.lane_values: List[int] = []
        #: Interned active masks: sorted tid tuples shared across records.
        self.masks: List[Tuple[int, ...]] = []
        #: Set only where the columns were proven consistent — by
        #: :func:`decode_batch` after :meth:`validate`, by
        #: :meth:`ColumnarBuilder.flush`, and by :class:`RowLog` for the
        #: rows the engine writes — so a memory row's lanes are exactly
        #: its mask, ascending, every integer in int64.  Whoever edits a
        #: checked batch's columns in place must clear it.
        self.checked = False
        self._mask_sets: Dict[int, FrozenSet[int]] = {}
        self._mask_bits: Dict[int, Dict[int, int]] = {}
        self._bits_layout: Optional[GridLayout] = None

    def __len__(self) -> int:
        return len(self.kinds)

    # ------------------------------------------------------------------
    # Materialization back to records
    # ------------------------------------------------------------------
    def mask_set(self, mask_id: int) -> FrozenSet[int]:
        """Pool entry ``mask_id`` as a frozenset: one object per entry."""
        mask = self._mask_sets.get(mask_id)
        if mask is None:
            mask = self._mask_sets[mask_id] = frozenset(self.masks[mask_id])
        return mask

    def mask_bits(self, mask_id: int, layout: GridLayout) -> Dict[int, int]:
        """Pool entry ``mask_id`` as ``{warp: lane bits}`` under ``layout``
        (:meth:`GridLayout.bits_by_warp`): one dict per entry, what the
        detector reads."""
        if layout is not self._bits_layout:
            self._bits_layout = layout
            self._mask_bits = {}
        bits = self._mask_bits.get(mask_id)
        if bits is None:
            bits = self._mask_bits[mask_id] = layout.bits_by_warp(
                self.masks[mask_id])
        return bits

    def record(self, index: int) -> LogRecord:
        """Row ``index`` as a :class:`LogRecord` whose ``addrs`` and
        ``values`` are read-only views of the row's lanes (``{}`` for a
        row without lanes) and whose masks are the pool's interned
        frozensets."""
        has_lanes = self.lane_starts[index] != self.lane_starts[index + 1]
        scope_code = self.scopes[index]
        then_id = self.then_mask_ids[index]
        return LogRecord(
            kind=KINDS[self.kinds[index]],
            warp=self.warps[index],
            active=self.mask_set(self.mask_ids[index]),
            addrs=_AddrsView(self, index) if has_lanes else {},
            values=_ValuesView(self, index) if has_lanes else {},
            scope=SCOPES[scope_code] if scope_code >= 0 else None,
            then_mask=self.mask_set(then_id) if then_id >= 0 else frozenset(),
            width=self.widths[index],
            pc=self.pcs[index],
        )

    def to_records(self) -> List[LogRecord]:
        """Every row as :meth:`record`, in row order."""
        return [self.record(index) for index in range(len(self.kinds))]

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> "ColumnarBatch":
        builder = ColumnarBuilder()
        for record in records:
            builder.append(record)
        return builder.flush()

    # ------------------------------------------------------------------
    # Internal consistency (used by the binary decoder on hostile input)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ReproError` if the columns are inconsistent."""
        n = len(self.kinds)
        for name in ("warps", "pcs", "widths", "scopes", "mask_ids",
                     "then_mask_ids"):
            if len(getattr(self, name)) != n:
                raise ReproError(
                    f"corrupt columnar batch: column {name!r} has "
                    f"{len(getattr(self, name))} rows, expected {n}"
                )
        if len(self.lane_starts) != n + 1 or (n == 0 and not self.lane_starts):
            raise ReproError("corrupt columnar batch: bad lane_starts length")
        lanes = len(self.lane_tids)
        for name in ("lane_spaces", "lane_addrs", "lane_has_value",
                     "lane_values"):
            if len(getattr(self, name)) != lanes:
                raise ReproError(
                    f"corrupt columnar batch: lane column {name!r} length "
                    f"mismatch"
                )
        if self.lane_starts[0] != 0 or self.lane_starts[-1] != lanes:
            raise ReproError("corrupt columnar batch: lane_starts bounds")
        previous = 0
        for value in self.lane_starts:
            if value < previous:
                raise ReproError(
                    "corrupt columnar batch: lane_starts not monotone")
            previous = value
        pool = len(self.masks)
        # Pool entry -> its tids as a lane slice must spell them, or None
        # when they do not strictly ascend; built once per entry.
        lanes_of_mask: Dict[int, Optional[List[int]]] = {}
        for index in range(n):
            code = self.kinds[index]
            if not 0 <= code < len(KINDS):
                raise ReproError(
                    f"corrupt columnar batch: unknown kind code {code}")
            memory = KINDS[code] in MEMORY_KINDS
            if memory and not 1 <= self.widths[index] <= MAX_ACCESS_BYTES:
                raise ReproError(
                    f"corrupt columnar batch: access width "
                    f"{self.widths[index]} outside 1..{MAX_ACCESS_BYTES}")
            if not 0 <= self.mask_ids[index] < pool:
                raise ReproError(
                    f"corrupt columnar batch: mask id {self.mask_ids[index]} "
                    f"out of range for pool of {pool}"
                )
            if memory:
                # A memory row's lanes are exactly its mask, ascending:
                # every consumer walks the lanes in that order and looks
                # addresses up by the mask's tids.
                mask_id = self.mask_ids[index]
                if mask_id not in lanes_of_mask:
                    mask = self.masks[mask_id]
                    lanes_of_mask[mask_id] = (
                        list(mask)
                        if all(a < b for a, b in zip(mask, mask[1:])) else None)
                lanes = self.lane_tids[
                    self.lane_starts[index]:self.lane_starts[index + 1]]
                if lanes != lanes_of_mask[mask_id]:
                    raise ReproError(
                        f"corrupt columnar batch: row {index} lanes "
                        f"{lanes[:8]} are not its active mask "
                        f"{list(self.masks[mask_id])[:8]} in ascending order")
            elif self.lane_starts[index] != self.lane_starts[index + 1]:
                raise _row_error(KINDS[code], self.warps[index],
                                 self.pcs[index],
                                 "a control row carries addrs or values")
            then_id = self.then_mask_ids[index]
            if then_id != -1 and not 0 <= then_id < pool:
                raise ReproError(
                    f"corrupt columnar batch: then-mask id {then_id} out of "
                    f"range for pool of {pool}"
                )
            scope = self.scopes[index]
            if scope != -1 and not 0 <= scope < len(SCOPES):
                raise ReproError(
                    f"corrupt columnar batch: unknown scope code {scope}")
        for code in self.lane_spaces:
            if not 0 <= code < len(SPACES):
                raise ReproError(
                    f"corrupt columnar batch: unknown space code {code}")

    def check_layout(self, layout: GridLayout) -> None:
        """Raise :class:`ReproError` unless every row fits ``layout``, as
        the detector's fused loop assumes: a row's warp (a barrier's
        block, or ``GRID_BARRIER_BLOCK``) is the launch's, and every tid
        of its masks — a memory row's lanes — lies in it.  Run on every
        batch from outside the process, after :meth:`validate`."""
        tpb = layout.threads_per_block
        # (mask id, lo, hi) triples already found inside [lo, hi).
        inside: Set[Tuple[int, int, int]] = set()
        for index, code in enumerate(self.kinds):
            kind, warp, pc = KINDS[code], self.warps[index], self.pcs[index]
            if kind is RecordKind.BARRIER:
                if warp == GRID_BARRIER_BLOCK:
                    lo, hi = 0, layout.total_threads
                elif 0 <= warp < layout.num_blocks:
                    lo = warp * tpb
                    hi = lo + tpb
                else:
                    raise _row_error(kind, warp, pc, (
                        f"block {warp} is not one of the launch's "
                        f"{layout.num_blocks}"))
            elif 0 <= warp < layout.total_warps:
                lo, count = layout.warp_span(warp)
                hi = lo + count
            else:
                raise _row_error(kind, warp, pc, (
                    f"warp {warp} is not one of the launch's "
                    f"{layout.total_warps}"))
            for mask_id in (self.mask_ids[index], self.then_mask_ids[index]):
                if mask_id < 0 or (mask_id, lo, hi) in inside:
                    continue
                mask = self.masks[mask_id]
                if mask and (min(mask) < lo or max(mask) >= hi):
                    stray = next(tid for tid in mask if not lo <= tid < hi)
                    unit = "block" if kind is RecordKind.BARRIER else "warp"
                    raise _row_error(kind, warp, pc, (
                        f"tid {stray} is outside its {unit} "
                        f"(tids {lo}..{hi - 1})"))
                inside.add((mask_id, lo, hi))


def _checked_row(record: LogRecord) -> Optional[Tuple[ColumnarBatch, int]]:
    """``(batch, row)`` when ``record`` is that row of a checked batch with
    its lanes unaltered — ``addrs`` and ``values`` the row's two views,
    ``kind`` the row's and ``active`` the row's interned mask — else
    None.  The batch's provenance then guarantees the lanes."""
    addrs, values = record.addrs, record.values
    if type(addrs) is not _AddrsView or type(values) is not _ValuesView:
        return None
    batch, row = addrs.batch, addrs.row
    if (batch.checked and values.batch is batch and values.row == row
            and KINDS[batch.kinds[row]] is record.kind
            and record.active is batch.mask_set(batch.mask_ids[row])):
        return batch, row
    return None


class ColumnarBuilder:
    """Accumulates records into a :class:`ColumnarBatch`.

    The engine and the binary writer both feed this; ``flush()`` hands
    off the finished batch and resets for the next one.
    """

    def __init__(self) -> None:
        self._batch = ColumnarBatch()
        self._mask_ids: Dict[frozenset, int] = {}

    def __len__(self) -> int:
        return len(self._batch)

    def _intern_mask(self, mask: frozenset, record: LogRecord) -> int:
        mask_id = self._mask_ids.get(mask)
        if mask_id is None:
            tids = _sorted_mask(mask)
            _check_i64(record, "tid", tids)
            mask_id = len(self._batch.masks)
            self._mask_ids[mask] = mask_id
            self._batch.masks.append(tids)
        return mask_id

    def append(self, record: LogRecord) -> None:
        """Append one row the engine can emit — integers in int64; a
        memory row's ``addrs`` exactly its active tids, its ``values``
        some of them, none ``None``; a control row with neither — or
        raise :class:`ReproError` (the builder is then discarded).

        A memory row read unaltered from a checked batch (see
        :func:`_checked_row`) has its lanes copied by slice: the batch's
        provenance already proved what the lane checks would."""
        kind = record.kind
        warp, pc, width = record.warp, record.pc, record.width
        _check_i64(record, "warp, pc or width", (warp, pc, width))
        addrs = record.addrs
        values = record.values
        batch = self._batch
        if kind in MEMORY_KINDS:
            active = record.active
            source = _checked_row(record)
            if source is None and addrs.keys() != active:
                raise _row_error(kind, warp, pc, "addrs and active mask "
                                 f"disagree on {sorted(addrs.keys() ^ active)}")
            mask_id = self._intern_mask(active, record)
            if source is not None:
                # The lanes are already exactly the mask, ascending, in
                # int64: copy them as they stand.
                origin, row = source
                start = origin.lane_starts[row]
                end = origin.lane_starts[row + 1]
                batch.lane_tids += origin.lane_tids[start:end]
                batch.lane_spaces += origin.lane_spaces[start:end]
                batch.lane_addrs += origin.lane_addrs[start:end]
                batch.lane_has_value += origin.lane_has_value[start:end]
                batch.lane_values += origin.lane_values[start:end]
            else:
                tids = batch.masks[mask_id]
                lane_spaces = batch.lane_spaces
                lane_addrs = batch.lane_addrs
                mark = len(lane_addrs)
                batch.lane_tids.extend(tids)
                for tid in tids:
                    space, addr = addrs[tid]
                    lane_spaces.append(SPACE_CODE[space])
                    lane_addrs.append(addr)
                _check_i64(record, "address", lane_addrs[mark:])
                if values:
                    if not values.keys() <= active:
                        raise _row_error(
                            kind, warp, pc, "values name inactive "
                            f"tids {sorted(values.keys() - active)}")
                    if None in values.values():
                        raise _row_error(kind, warp, pc,
                                         "a stored value is None")
                    _check_i64(record, "stored value", values.values())
                    lane_has_value = batch.lane_has_value
                    lane_values = batch.lane_values
                    values_get = values.get
                    for tid in tids:
                        value = values_get(tid)
                        lane_has_value.append(0 if value is None else 1)
                        lane_values.append(0 if value is None else value)
                else:
                    absent = [0] * len(tids)
                    batch.lane_has_value.extend(absent)
                    batch.lane_values.extend(absent)
        elif addrs or values:
            raise _row_error(kind, warp, pc,
                             "a control row carries addrs or values")
        else:
            mask_id = self._intern_mask(record.active, record)
        batch.kinds.append(KIND_CODE[kind])
        batch.warps.append(warp)
        batch.pcs.append(pc)
        batch.widths.append(width)
        batch.scopes.append(
            SCOPE_CODE[record.scope] if record.scope is not None else -1)
        batch.mask_ids.append(mask_id)
        batch.then_mask_ids.append(
            self._intern_mask(record.then_mask, record)
            if record.then_mask else -1)
        batch.lane_starts.append(len(batch.lane_tids))

    def flush(self) -> ColumnarBatch:
        batch = self._batch
        batch.checked = True  # every row passed append()
        self._batch = ColumnarBatch()
        self._mask_ids = {}
        return batch


class RowLog(ColumnarBuilder):
    """A launch's log records, written as rows of columnar batches.

    The engine writes each record as one row (:meth:`write`) straight
    from a warp's lanes — no record object, no per-lane check — and
    hands its number on; a record from anywhere else enters through the
    checked :meth:`ColumnarBuilder.append`.  Row ``n`` is row ``n %
    batch_rows`` of ``batches[n // batch_rows]``.  Every batch is
    ``checked`` from the moment it opens: its rows are the engine's own
    (a memory row's lanes are its mask, ascending; its stored values are
    the low 64 bits, signed) or passed :meth:`append`.  An address
    outside int64 is never read from a row: the access it logs fails
    first.

    A mask is interned per batch on a key that names its tid set one way
    only: ``(first tid of a warp, lane bits)`` for a set inside that
    warp (the warp of its lowest tid), a tuple of those pairs for a set
    spanning warps, ``None`` for the empty set.  The pool is then the
    one :meth:`ColumnarBuilder.append` builds from the same rows.
    """

    def __init__(self, batch_rows: int = DEFAULT_BATCH_RECORDS) -> None:
        super().__init__()
        self.batch_rows = batch_rows
        self._written = 0
        #: Every batch by index; a sealed batch whose rows were all
        #: consumed (:meth:`consumed`) is ``None``.
        self.batches: List[Optional[ColumnarBatch]] = [self._batch]
        self._batch.checked = True
        self._consumed: List[int] = [0]

    def _room(self) -> ColumnarBatch:
        """The batch the next row goes in, sealing a full one first."""
        batch = self._batch
        if len(batch.kinds) == self.batch_rows:
            self.flush()
            batch = self._batch
            batch.checked = True
            self.batches.append(batch)
            self._consumed.append(0)
        return batch

    def __len__(self) -> int:
        """Rows written so far: the next row's number."""
        return self._written

    def _next(self) -> int:
        number = self._written
        self._written = number + 1
        return number

    def append(self, record: LogRecord) -> int:  # type: ignore[override]
        """Write ``record`` through the builder's checks; its number."""
        self._room()
        super().append(record)
        return self._next()

    def write(self, code: int, warp: int, pc: int, width: int, scope: int,
              key, mask: Iterable[int], then_key=None,
              then_mask: Iterable[int] = (),
              tids: Optional[Sequence[int]] = None, space: int = 0,
              addrs: Sequence[int] = (),
              values: Optional[Sequence[int]] = None) -> int:
        """Write one engine row; its number.

        ``mask`` (read only when ``key`` is new to the batch) is the
        active tids, ascending; ``then_key``/``then_mask`` a BRANCH_IF's
        then-mask.  A memory row passes its lanes: ``tids`` (the mask),
        one ``space`` code, ``addrs`` and, for a store, ``values``.
        """
        batch = self._room()
        mask_ids = self._mask_ids
        masks = batch.masks
        mask_id = mask_ids.get(key)
        if mask_id is None:
            mask_id = mask_ids[key] = len(masks)
            masks.append(tuple(mask))
        then_id = -1
        if then_key is not None:
            then_id = mask_ids.get(then_key)
            if then_id is None:
                then_id = mask_ids[then_key] = len(masks)
                masks.append(tuple(then_mask))
        batch.kinds.append(code)
        batch.warps.append(warp)
        batch.pcs.append(pc)
        batch.widths.append(width)
        batch.scopes.append(scope)
        batch.mask_ids.append(mask_id)
        batch.then_mask_ids.append(then_id)
        if tids is not None:
            lanes = len(tids)
            batch.lane_tids += tids
            batch.lane_spaces += [space] * lanes
            batch.lane_addrs += addrs
            if values is None:
                absent = [0] * lanes
                batch.lane_has_value += absent
                batch.lane_values += absent
            else:
                batch.lane_has_value += [1] * lanes
                batch.lane_values += values
        batch.lane_starts.append(len(batch.lane_tids))
        return self._next()

    def locate(self, number: int) -> Tuple[ColumnarBatch, int]:
        """``(batch, row)`` of row ``number``, its batch not yet dropped."""
        index, row = divmod(number, self.batch_rows)
        return self.batches[index], row

    def close(self) -> None:
        """Drop every batch: the launch is over and the host has read
        what was committed (a row never committed is lost with it).
        Views of a row keep its batch."""
        self.batches.clear()
        self._batch = ColumnarBatch()

    def consumed(self, index: int, count: int) -> None:
        """``count`` more rows of batch ``index`` were consumed; a sealed
        batch whose every row was is dropped (views of it keep it)."""
        done = self._consumed[index] + count
        self._consumed[index] = done
        if done == self.batch_rows:
            self.batches[index] = None


def iter_batches(items: Iterable[Union[LogRecord, ColumnarBatch]],
                 batch_records: int = DEFAULT_BATCH_RECORDS,
                 ) -> Iterator[ColumnarBatch]:
    """Chunk a record stream into columnar batches of at most
    ``batch_records`` rows.  An item that is already a batch passes as
    it stands, after the run of records before it; a count below 1 is a
    :class:`ReproError`, raised before the first item is read."""
    if batch_records < 1:
        raise ReproError(
            f"records per batch must be at least 1, not {batch_records}")
    return _chunks(items, batch_records)


def _chunks(items: Iterable[Union[LogRecord, ColumnarBatch]],
            batch_records: int) -> Iterator[ColumnarBatch]:
    builder = ColumnarBuilder()
    for item in items:
        if isinstance(item, ColumnarBatch):
            if len(builder):
                yield builder.flush()
            yield item
        else:
            builder.append(item)
            if len(builder) >= batch_records:
                yield builder.flush()
    if len(builder):
        yield builder.flush()


# ----------------------------------------------------------------------
# Rows -> §3.1 trace operations
# ----------------------------------------------------------------------
#: The thread-level operation each lane of a memory row expands to, by
#: kind code; the synchronization kinds' operations carry a scope.
_THREAD_OP = {KIND_CODE[kind]: op for kind, op in zip(
    (RecordKind.LOAD, RecordKind.STORE, RecordKind.ATOMIC, RecordKind.ACQUIRE,
     RecordKind.RELEASE, RecordKind.ACQREL), THREAD_OPS)}
_SYNC_KINDS = frozenset(range(KIND_ACQUIRE, KIND_ACQREL + 1))


def rows_to_ops(batch: ColumnarBatch, layout: GridLayout,
                granularity: int = 4) -> List[AnyOp]:
    """Expand a batch's rows, in row order, into the §3.1 trace
    operations.

    A memory row becomes one thread-level operation per touched shadow
    cell per lane, in lane (ascending tid) order, followed by one
    ``endi``; a control row maps one-to-one.  A store lane without a
    value writes ``None``.  ``granularity`` is the shadow-cell size in
    bytes (4 by default, matching the benchmarks' aligned word accesses;
    1 for the paper's fully general byte mode).
    """
    ops: List[AnyOp] = []
    append = ops.append
    mask_set = batch.mask_set
    lane_starts, lane_tids = batch.lane_starts, batch.lane_tids
    lane_spaces, lane_addrs = batch.lane_spaces, batch.lane_addrs
    lane_has_value, lane_values = batch.lane_has_value, batch.lane_values
    block_of = layout.block_of
    shared = Space.SHARED
    for row, code in enumerate(batch.kinds):
        warp, pc = batch.warps[row], batch.pcs[row]
        active = mask_set(batch.mask_ids[row])
        if code == KIND_BARRIER:
            append(Barrier(block=warp, active=active, pc=pc))
            continue
        if code == KIND_BRANCH_IF:
            then_id = batch.then_mask_ids[row]
            then_mask = mask_set(then_id) if then_id >= 0 else frozenset()
            append(If(warp=warp, then_mask=then_mask,
                      else_mask=active - then_mask, pc=pc))
            continue
        if code == KIND_BRANCH_ELSE:
            append(Else(warp=warp, pc=pc))
            continue
        if code == KIND_BRANCH_FI:
            append(Fi(warp=warp, pc=pc))
            continue
        make = _THREAD_OP[code]
        store = code == KIND_STORE
        sync = code in _SYNC_KINDS
        scope_code, width = batch.scopes[row], batch.widths[row]
        scope = SCOPES[scope_code] if scope_code >= 0 else None
        for lane in range(lane_starts[row], lane_starts[row + 1]):
            tid = lane_tids[lane]
            space = SPACES[lane_spaces[lane]]
            block = block_of(tid) if space is shared else -1
            for offset in cell_offsets(lane_addrs[lane], width, granularity):
                loc = Location(space, offset, block)
                if store:
                    append(make(tid, loc, lane_values[lane]
                                if lane_has_value[lane] else None, pc=pc))
                elif sync:
                    append(make(tid, loc, scope, pc=pc))
                else:
                    append(make(tid, loc, pc=pc))
        append(EndInsn(warp=warp, amask=active, pc=pc))
    return ops


#: Each thread-level operation's kind code: :data:`_THREAD_OP` inverted.
_OP_KIND = {op: code for code, op in _THREAD_OP.items()}


def _no_row_form(op: AnyOp, problem: str) -> TraceError:
    return TraceError(f"{op} (pc {op.pc}): no row form, {problem}")


def ops_to_rows(ops: Iterable[AnyOp], layout: GridLayout,
                granularity: int = 4) -> ColumnarBatch:
    """Pack §3.1 operations into rows: the inverse of :func:`rows_to_ops`.

    A warp instruction (thread-level operations, then their ``endi``) is
    one memory row of width ``granularity`` and the ``endi``'s mask, with
    one lane per operation: tid, space, cell and any written value.  An
    access spanning cells is one operation, so one lane, per cell.
    ``if``/``else``/``fi``/``bar`` are a control row each (an ``if``
    row's mask is then ∪ else).  No engine row looks like this, so the
    batch is not ``checked`` and no lane is held to int64: it is for this
    process's detector, not for a capture.

    An operation with no row form is one :class:`TraceError` naming it:
    thread operations with no trailing ``endi`` or around a control
    operation, an instruction mixing kinds, pcs or scopes, a lane outside
    the ``endi``'s warp or out of tid order, a cell not aligned to
    ``granularity`` or shared in another block, an ``if`` whose masks
    overlap.  A warp, block or mask outside ``layout`` fails
    :meth:`ColumnarBatch.check_layout`, in one line too.
    """
    batch = ColumnarBatch()
    mask_ids: Dict[FrozenSet[int], int] = {}
    rows: List[Tuple[int, ...]] = []
    lanes: List[Tuple[int, ...]] = []
    group: List[AnyOp] = []

    def row(code: int, warp: int, op: AnyOp, mask: FrozenSet[int],
            scope: int = -1, then_mask: FrozenSet[int] = frozenset()) -> None:
        then_id = (mask_ids.setdefault(then_mask, len(mask_ids))
                   if then_mask else -1)
        rows.append((code, warp, op.pc, granularity, scope,
                     mask_ids.setdefault(mask, len(mask_ids)), then_id))
        batch.lane_starts.append(len(lanes))

    for op in ops:
        kind = type(op)
        if kind in _OP_KIND:
            group.append(op)
        elif kind is EndInsn:
            lo, count = layout.warp_span(op.warp)
            block = layout.block_of_warp(op.warp)
            model = group[0] if group else None
            scope = getattr(model, "scope", None)
            previous = lo
            for lane in group:
                loc, tid = lane.loc, lane.tid
                if (type(lane) is not type(model) or lane.pc != op.pc
                        or getattr(lane, "scope", None) is not scope):
                    raise _no_row_form(
                        lane, f"one instruction holds it, {model} and {op}")
                if not previous <= tid < lo + count:
                    raise _no_row_form(lane, f"its lane is outside warp "
                                       f"{op.warp} or out of tid order")
                if loc.offset % granularity:
                    raise _no_row_form(
                        lane, f"its cell is not {granularity}-byte aligned")
                if loc.space is Space.SHARED and loc.block != block:
                    raise _no_row_form(
                        lane, f"its shared cell is not in block {block}")
                previous = tid
                value = getattr(lane, "value", None)
                lanes.append((tid, SPACE_CODE[loc.space], loc.offset,
                              0 if value is None else 1, value or 0))
            # A bare endi is a row without lanes: any memory kind will do.
            row(_OP_KIND.get(type(model), KIND_LOAD), op.warp, op, op.amask,
                -1 if scope is None else SCOPE_CODE[scope])
            group = []
        elif group:
            raise _no_row_form(op, "a control operation inside the "
                               f"instruction of {group[0]}")
        elif kind is If:
            if op.then_mask & op.else_mask:
                raise _no_row_form(op, "its then and else masks overlap")
            row(KIND_BRANCH_IF, op.warp, op, op.then_mask | op.else_mask,
                then_mask=op.then_mask)
        elif kind is Else or kind is Fi:
            row(KIND_BRANCH_ELSE if kind is Else else KIND_BRANCH_FI,
                op.warp, op, frozenset())
        elif kind is Barrier:
            row(KIND_BARRIER, op.block, op, op.active)
        else:
            raise TraceError(f"{op!r}: not a trace operation")
    if group:
        raise _no_row_form(group[0], "its instruction has no trailing endi")
    if rows:
        (batch.kinds, batch.warps, batch.pcs, batch.widths, batch.scopes,
         batch.mask_ids, batch.then_mask_ids) = map(list, zip(*rows))
    if lanes:
        (batch.lane_tids, batch.lane_spaces, batch.lane_addrs,
         batch.lane_has_value, batch.lane_values) = map(list, zip(*lanes))
    batch.masks = [tuple(sorted(mask)) for mask in mask_ids]
    batch.check_layout(layout)
    return batch


# ----------------------------------------------------------------------
# Column packing: the byte-level substrate of the binary capture format.
# ----------------------------------------------------------------------
def pack_i64(values: Sequence[int]) -> bytes:
    """Little-endian int64 column bytes."""
    packed = array("q", values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tobytes()


def unpack_i64(data: bytes, count: int) -> List[int]:
    """Decode ``count`` little-endian int64s into plain Python ints."""
    if len(data) < count * 8:
        raise ReproError(
            f"corrupt column: expected {count * 8} bytes, got {len(data)}")
    unpacked = array("q")
    unpacked.frombytes(data[: count * 8])
    if _BIG_ENDIAN:
        unpacked.byteswap()
    return unpacked.tolist()


def pack_u8(values: Sequence[int]) -> bytes:
    """Unsigned-byte column bytes (endianness-free)."""
    return bytes(bytearray(values))


def unpack_u8(data: bytes, count: int) -> List[int]:
    if len(data) < count:
        raise ReproError(
            f"corrupt column: expected {count} bytes, got {len(data)}")
    return list(data[:count])


# ----------------------------------------------------------------------
# Batch <-> bytes
# ----------------------------------------------------------------------
_HEADER = struct.Struct("<IIII")
_U32 = struct.Struct("<I")

#: Decoder sanity bound: no single batch legitimately carries more rows,
#: lanes or masks than this (matches the service frame cap discipline);
#: anything larger is treated as corruption, not an allocation request.
MAX_BATCH_ITEMS = 1 << 24


def encode_batch(batch: ColumnarBatch) -> bytes:
    """Serialize one batch as self-contained little-endian column blobs.

    Layout (all sizes derivable from the fixed header, so decoding is a
    single pass of column-wide ``frombytes`` calls):

    ``u32×4`` rows/lanes/masks counts and a reserved 0; int64 columns
    ``warps``, ``pcs``, ``widths``, ``mask_ids``, ``then_mask_ids``,
    ``lane_starts`` (rows+1), ``lane_tids``, ``lane_addrs``,
    ``lane_values``; byte columns ``kinds``, ``scopes`` (code+1),
    ``lane_spaces``, ``lane_has_value``; mask pool (``u32`` total tids,
    per-mask int64 lengths, flat int64 tids).
    """
    parts = [
        _HEADER.pack(len(batch.kinds), len(batch.lane_tids),
                     len(batch.masks), 0),
        pack_i64(batch.warps),
        pack_i64(batch.pcs),
        pack_i64(batch.widths),
        pack_i64(batch.mask_ids),
        pack_i64(batch.then_mask_ids),
        pack_i64(batch.lane_starts),
        pack_i64(batch.lane_tids),
        pack_i64(batch.lane_addrs),
        pack_i64(batch.lane_values),
        pack_u8(batch.kinds),
        pack_u8(code + 1 for code in batch.scopes),
        pack_u8(batch.lane_spaces),
        pack_u8(batch.lane_has_value),
    ]
    mask_tids = [tid for mask in batch.masks for tid in mask]
    parts.append(_U32.pack(len(mask_tids)))
    parts.append(pack_i64([len(mask) for mask in batch.masks]))
    parts.append(pack_i64(mask_tids))
    return b"".join(parts)


class _Cursor:
    """Bounds-checked reader over a batch payload."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, nbytes: int) -> bytes:
        end = self.offset + nbytes
        if nbytes < 0 or end > len(self.data):
            raise ReproError(
                "truncated columnar batch: wanted "
                f"{nbytes} bytes at offset {self.offset}, "
                f"payload is {len(self.data)} bytes"
            )
        view = self.data[self.offset:end]
        self.offset = end
        return view

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def batch_record_count(data: bytes) -> int:
    """Record count of an encoded batch, read from the fixed header.

    Cheap peek for transports that need per-frame accounting (the
    service's ACK/backpressure bookkeeping) without paying a full
    :func:`decode_batch`.
    """
    if len(data) < _HEADER.size:
        raise ReproError("corrupt columnar batch: truncated header")
    rows = _HEADER.unpack_from(data)[0]
    if rows > MAX_BATCH_ITEMS:
        raise ReproError(
            f"corrupt columnar batch: rows count {rows} exceeds "
            f"{MAX_BATCH_ITEMS}")
    return rows


def decode_batch(data: bytes) -> ColumnarBatch:
    """Decode :func:`encode_batch` output, validating hostile input.

    Every malformation — truncation, impossible counts, out-of-range
    codes or pool indices, a nonzero reserved count — surfaces as
    :class:`ReproError` so capture loaders fail one capture cleanly.
    """
    cursor = _Cursor(data)
    rows, lanes, n_masks, reserved = _HEADER.unpack(cursor.take(_HEADER.size))
    for name, count in (("rows", rows), ("lanes", lanes), ("masks", n_masks)):
        if count > MAX_BATCH_ITEMS:
            raise ReproError(
                f"corrupt columnar batch: {name} count {count} exceeds "
                f"{MAX_BATCH_ITEMS}"
            )
    if reserved:  # once a count of rows the columns cannot hold
        raise ReproError(f"corrupt columnar batch: {reserved} row(s) outside "
                         "the columns (the header's fourth count must be 0)")
    batch = ColumnarBatch()
    batch.warps = unpack_i64(cursor.take(rows * 8), rows)
    batch.pcs = unpack_i64(cursor.take(rows * 8), rows)
    batch.widths = unpack_i64(cursor.take(rows * 8), rows)
    batch.mask_ids = unpack_i64(cursor.take(rows * 8), rows)
    batch.then_mask_ids = unpack_i64(cursor.take(rows * 8), rows)
    batch.lane_starts = unpack_i64(cursor.take((rows + 1) * 8), rows + 1)
    batch.lane_tids = unpack_i64(cursor.take(lanes * 8), lanes)
    batch.lane_addrs = unpack_i64(cursor.take(lanes * 8), lanes)
    batch.lane_values = unpack_i64(cursor.take(lanes * 8), lanes)
    batch.kinds = unpack_u8(cursor.take(rows), rows)
    batch.scopes = [code - 1 for code in unpack_u8(cursor.take(rows), rows)]
    batch.lane_spaces = unpack_u8(cursor.take(lanes), lanes)
    batch.lane_has_value = unpack_u8(cursor.take(lanes), lanes)
    mask_total = cursor.u32()
    if mask_total > MAX_BATCH_ITEMS:
        raise ReproError(
            f"corrupt columnar batch: mask pool of {mask_total} tids")
    mask_lens = unpack_i64(cursor.take(n_masks * 8), n_masks)
    mask_tids = unpack_i64(cursor.take(mask_total * 8), mask_total)
    if sum(mask_lens) != mask_total or any(l < 0 for l in mask_lens):
        raise ReproError("corrupt columnar batch: mask pool lengths disagree")
    position = 0
    for length in mask_lens:
        batch.masks.append(tuple(mask_tids[position:position + length]))
        position += length
    if cursor.offset != len(data):
        raise ReproError(
            f"corrupt columnar batch: {len(data) - cursor.offset} trailing "
            "bytes after the mask pool"
        )
    batch.validate()
    batch.checked = True
    return batch
