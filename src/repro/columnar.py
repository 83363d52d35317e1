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

Lossless by construction: every :class:`LogRecord` round-trips through
:meth:`ColumnarBatch.from_records` / :meth:`ColumnarBatch.to_records`
unchanged.  Records the flat columns cannot express exactly (addresses
outside int64, ``None`` stored values, address maps that disagree with
the active mask) ride along in a per-batch ``extras`` side table encoded
as JSON, so even adversarial captures survive the trip.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ReproError
from .events import (
    MAX_ACCESS_BYTES,
    MEMORY_KINDS,
    RECORD_BYTES,
    LogRecord,
    RecordKind,
    _sorted_mask,
)
from .trace.operations import Scope, Space


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
KIND_BARRIER = KIND_CODE[RecordKind.BARRIER]
#: Column code of a row whose record lives in the ``extras`` side table.
KIND_EXTRA = 255

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


class ColumnarBatch:
    """A run of log records as parallel flat columns.

    Per-record columns (length ``len(self)``): ``kinds`` (column codes),
    ``warps``, ``pcs``, ``widths``, ``scopes`` (code or -1), ``mask_ids``
    and ``then_mask_ids`` (indices into the ``masks`` pool; -1 for "no
    then-mask").  ``lane_starts`` (length ``len(self) + 1``) prefixes the
    per-lane columns ``lane_tids`` / ``lane_spaces`` / ``lane_addrs`` /
    ``lane_has_value`` / ``lane_values``, which hold one entry per active
    lane of each memory record in ascending-tid order — exactly the
    order :func:`repro.events.record_to_ops` expands.

    Columns are plain Python lists of ints: the fused detector loop
    iterates them directly, while the binary codec
    converts to/from flat buffers wholesale.
    """

    __slots__ = (
        "kinds", "warps", "pcs", "widths", "scopes", "mask_ids",
        "then_mask_ids", "lane_starts", "lane_tids", "lane_spaces",
        "lane_addrs", "lane_has_value", "lane_values", "masks", "extras",
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
        #: Row index → verbatim record, for rows the columns cannot
        #: express exactly (code ``KIND_EXTRA``).
        self.extras: Dict[int, LogRecord] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def lane_count(self) -> int:
        return len(self.lane_tids)

    def size_bytes(self) -> int:
        """Modeled on-device size: columnar layout does not change the
        Figure 6 record-byte accounting the queues meter."""
        return len(self.kinds) * RECORD_BYTES

    # ------------------------------------------------------------------
    # Materialization back to records
    # ------------------------------------------------------------------
    def record(self, index: int) -> LogRecord:
        """Reconstruct row ``index`` as a :class:`LogRecord`."""
        kind_code = self.kinds[index]
        if kind_code == KIND_EXTRA:
            try:
                return self.extras[index]
            except KeyError:
                raise ReproError(
                    f"columnar batch row {index} marked extra but missing "
                    "from the extras table"
                ) from None
        kind = KINDS[kind_code]
        start = self.lane_starts[index]
        end = self.lane_starts[index + 1]
        addrs: Dict[int, Tuple[Space, int]] = {}
        values: Dict[int, Optional[int]] = {}
        for lane in range(start, end):
            tid = self.lane_tids[lane]
            addrs[tid] = (SPACES[self.lane_spaces[lane]], self.lane_addrs[lane])
            if self.lane_has_value[lane]:
                values[tid] = self.lane_values[lane]
        scope_code = self.scopes[index]
        then_id = self.then_mask_ids[index]
        return LogRecord(
            kind=kind,
            warp=self.warps[index],
            active=frozenset(self.masks[self.mask_ids[index]]),
            addrs=addrs,
            values=values,
            scope=SCOPES[scope_code] if scope_code >= 0 else None,
            then_mask=(
                frozenset(self.masks[then_id]) if then_id >= 0 else frozenset()
            ),
            width=self.widths[index],
            pc=self.pcs[index],
        )

    def iter_records(self) -> Iterator[LogRecord]:
        for index in range(len(self.kinds)):
            yield self.record(index)

    def to_records(self) -> List[LogRecord]:
        return list(self.iter_records())

    @classmethod
    def from_records(cls, records: Sequence[LogRecord]) -> "ColumnarBatch":
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
            if code != KIND_EXTRA and not 0 <= code < len(KINDS):
                raise ReproError(
                    f"corrupt columnar batch: unknown kind code {code}")
            if (code != KIND_EXTRA and KINDS[code] in MEMORY_KINDS
                    and not 1 <= self.widths[index] <= MAX_ACCESS_BYTES):
                raise ReproError(
                    f"corrupt columnar batch: access width "
                    f"{self.widths[index]} outside 1..{MAX_ACCESS_BYTES}")
            if code == KIND_EXTRA and index not in self.extras:
                raise ReproError(
                    f"corrupt columnar batch: row {index} marked extra but "
                    "missing from the extras table"
                )
            if not 0 <= self.mask_ids[index] < pool:
                raise ReproError(
                    f"corrupt columnar batch: mask id {self.mask_ids[index]} "
                    f"out of range for pool of {pool}"
                )
            if code != KIND_EXTRA and KINDS[code] in MEMORY_KINDS:
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

    def _intern_mask(self, mask: frozenset) -> int:
        mask_id = self._mask_ids.get(mask)
        if mask_id is None:
            mask_id = len(self._batch.masks)
            self._mask_ids[mask] = mask_id
            self._batch.masks.append(_sorted_mask(mask))
        return mask_id

    def _append_extra(self, record: LogRecord) -> None:
        batch = self._batch
        batch.extras[len(batch.kinds)] = record
        batch.kinds.append(KIND_EXTRA)
        batch.warps.append(0)
        batch.pcs.append(0)
        batch.widths.append(0)
        batch.scopes.append(-1)
        batch.mask_ids.append(self._intern_mask(frozenset()))
        batch.then_mask_ids.append(-1)
        batch.lane_starts.append(len(batch.lane_tids))

    def append(self, record: LogRecord) -> None:
        """Append one record, falling back to the extras table when the
        flat columns cannot express it exactly."""
        kind = record.kind
        addrs = record.addrs
        values = record.values
        if kind in MEMORY_KINDS:
            canonical = (
                addrs.keys() == record.active
                and values.keys() <= record.active
                and _fits_i64(record.warp)
                and _fits_i64(record.pc)
                and _fits_i64(record.width)
            )
        else:
            canonical = (
                not addrs
                and not values
                and _fits_i64(record.warp)
                and _fits_i64(record.pc)
                and _fits_i64(record.width)
            )
        if not canonical:
            self._append_extra(record)
            return
        batch = self._batch
        lane_tids = batch.lane_tids
        lane_spaces = batch.lane_spaces
        lane_addrs = batch.lane_addrs
        lane_has_value = batch.lane_has_value
        lane_values = batch.lane_values
        mark = (len(batch.kinds), len(lane_tids))
        values_get = values.get
        lane_source = _sorted_mask(record.active) if kind in MEMORY_KINDS else ()
        for tid in lane_source:
            space, addr = addrs[tid]
            value = values_get(tid)
            if not (_fits_i64(tid) and _fits_i64(addr)
                    and (value is None or (isinstance(value, int)
                                           and _fits_i64(value)))):
                del lane_tids[mark[1]:]
                del lane_spaces[mark[1]:]
                del lane_addrs[mark[1]:]
                del lane_has_value[mark[1]:]
                del lane_values[mark[1]:]
                self._append_extra(record)
                return
            lane_tids.append(tid)
            lane_spaces.append(SPACE_CODE[space])
            lane_addrs.append(addr)
            if value is None and tid in values:
                # A present-but-None stored value cannot be told apart
                # from an absent one in the flat columns.
                del lane_tids[mark[1]:]
                del lane_spaces[mark[1]:]
                del lane_addrs[mark[1]:]
                del lane_has_value[mark[1]:]
                del lane_values[mark[1]:]
                self._append_extra(record)
                return
            lane_has_value.append(0 if value is None else 1)
            lane_values.append(0 if value is None else value)
        batch.kinds.append(KIND_CODE[kind])
        batch.warps.append(record.warp)
        batch.pcs.append(record.pc)
        batch.widths.append(record.width)
        batch.scopes.append(
            SCOPE_CODE[record.scope] if record.scope is not None else -1)
        batch.mask_ids.append(self._intern_mask(record.active))
        batch.then_mask_ids.append(
            self._intern_mask(record.then_mask) if record.then_mask else -1)
        batch.lane_starts.append(len(lane_tids))

    def flush(self) -> ColumnarBatch:
        batch = self._batch
        self._batch = ColumnarBatch()
        self._mask_ids = {}
        return batch


def iter_batches(records: Sequence[LogRecord],
                 batch_records: int = DEFAULT_BATCH_RECORDS,
                 ) -> Iterator[ColumnarBatch]:
    """Chunk a record stream into columnar batches of bounded size."""
    builder = ColumnarBuilder()
    for record in records:
        builder.append(record)
        if len(builder) >= batch_records:
            yield builder.flush()
    if len(builder):
        yield builder.flush()


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
#: lanes, masks, or extras than this (matches the service frame cap
#: discipline); anything larger is treated as corruption, not an
#: allocation request.
MAX_BATCH_ITEMS = 1 << 24


def encode_batch(batch: ColumnarBatch) -> bytes:
    """Serialize one batch as self-contained little-endian column blobs.

    Layout (all sizes derivable from the fixed header, so decoding is a
    single pass of column-wide ``frombytes`` calls):

    ``u32×4`` rows/lanes/masks/extras counts; int64 columns ``warps``,
    ``pcs``, ``widths``, ``mask_ids``, ``then_mask_ids``,
    ``lane_starts`` (rows+1), ``lane_tids``, ``lane_addrs``,
    ``lane_values``; byte columns ``kinds``, ``scopes`` (code+1),
    ``lane_spaces``, ``lane_has_value``; mask pool (``u32`` total tids,
    per-mask ``u32`` lengths, flat int64 tids); extras (per entry:
    ``u32`` row index, ``u32`` JSON length, JSON record bytes).
    """
    from .runtime.replay import _record_to_json  # lazy: avoids a cycle

    import json

    parts = [
        _HEADER.pack(len(batch.kinds), len(batch.lane_tids),
                     len(batch.masks), len(batch.extras)),
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
    for index in sorted(batch.extras):
        blob = json.dumps(_record_to_json(batch.extras[index])).encode("utf-8")
        parts.append(_U32.pack(index))
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
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
    codes or pool indices, garbage extras JSON — surfaces as
    :class:`ReproError` so capture loaders fail one capture cleanly.
    """
    from .runtime.replay import record_line_to_record  # lazy: avoids a cycle

    cursor = _Cursor(data)
    rows, lanes, n_masks, n_extras = _HEADER.unpack(cursor.take(_HEADER.size))
    for name, count in (("rows", rows), ("lanes", lanes),
                        ("masks", n_masks), ("extras", n_extras)):
        if count > MAX_BATCH_ITEMS:
            raise ReproError(
                f"corrupt columnar batch: {name} count {count} exceeds "
                f"{MAX_BATCH_ITEMS}"
            )
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
    for _ in range(n_extras):
        index = cursor.u32()
        blob_len = cursor.u32()
        blob = cursor.take(blob_len)
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReproError(
                f"corrupt columnar batch: extras entry is not UTF-8: {exc}"
            ) from exc
        if not 0 <= index < rows:
            raise ReproError(
                f"corrupt columnar batch: extras row index {index} out of "
                f"range for {rows} rows"
            )
        batch.extras[index] = record_line_to_record(text)
    if cursor.offset != len(data):
        raise ReproError(
            f"corrupt columnar batch: {len(data) - cursor.offset} trailing "
            "bytes after the extras table"
        )
    batch.validate()
    return batch
