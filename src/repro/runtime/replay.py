"""Record-stream capture and offline replay.

The GPU-side logging and the host-side analysis are decoupled by design
(§4: the queues are the only interface), which makes the record stream a
natural artifact: capture it once, then re-run the detector offline —
with different configurations (same-value filtering on/off), against a
different detector (the uncompressed reference), or on another machine.

The format is JSON lines: one header object, then one object per
record.  It is deliberately self-describing so captures survive code
evolution.
"""

from __future__ import annotations

import json
import struct
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from ..columnar import (
    DEFAULT_BATCH_RECORDS,
    ColumnarBatch,
    RowLog,
    decode_batch,
    encode_batch,
    iter_batches,
    rows_to_ops,
)
from ..core.detector import BarracudaDetector
from ..core.races import DetectorReports
from ..core.races import DetectorConfig
from ..errors import ReproError
from ..events import MAX_ACCESS_BYTES, MEMORY_KINDS, LogRecord, RecordKind
from ..faults import NULL_FAULTS, resolve_faults
from ..faults import sites as fault_sites
from ..gpu.interpreter import EventSink, ListSink
from ..trace.layout import GridLayout
from ..trace.operations import Scope, Space

FORMAT_VERSION = 1

#: First bytes of a binary capture; anything else is treated as JSONL.
BINARY_MAGIC = b"BCAP"
BINARY_VERSION = 1
#: Per-frame ceiling, mirroring the service protocol's framing cap: a
#: length prefix beyond this is corruption, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Ceiling on ``num_blocks * threads_per_block`` in a capture header.  The
#: detector builds its clock state eagerly from the layout (141 MiB at
#: 2**20 threads), so a header is an allocation request and gets the same
#: treatment as a frame length; 2**24 is sixteen times the paper-scale tier.
MAX_CAPTURE_THREADS = 1 << 24
_FRAME_LENGTH = struct.Struct("!I")
_LAYOUT_FIELDS = ("num_blocks", "threads_per_block", "warp_size")
#: How much of a file's first line :func:`detect_capture_format` reads.
_SNIFF_BYTES = 4096


class RecordingSink(ListSink):
    """A :class:`~repro.gpu.interpreter.ListSink` that forwards each row
    to ``inner`` too: wrapped round the session's live sink, it keeps the
    rows the detector read (:attr:`batches`) as a replayable capture."""

    def __init__(self, inner: Optional[EventSink] = None) -> None:
        super().__init__()
        self.inner = inner

    def emit_row(self, rows: RowLog, number: int) -> int:
        super().emit_row(rows, number)
        if self.inner is not None:
            return self.inner.emit_row(rows, number)
        return 0


def _record_to_json(record: LogRecord) -> dict:
    payload = {
        "kind": record.kind.value,
        "warp": record.warp,
        "active": sorted(record.active),
        "pc": record.pc,
    }
    if record.addrs:
        payload["addrs"] = {
            str(tid): [space.value, addr] for tid, (space, addr) in record.addrs.items()
        }
    if record.values:
        payload["values"] = {str(t): v for t, v in record.values.items()}
    if record.scope is not None:
        payload["scope"] = record.scope.value
    if record.then_mask:
        payload["then_mask"] = sorted(record.then_mask)
    if record.width != 4:
        payload["width"] = record.width
    return payload


def _record_from_json(payload: dict) -> LogRecord:
    try:
        record = LogRecord(
            kind=RecordKind(payload["kind"]),
            warp=payload["warp"],
            active=frozenset(payload["active"]),
            addrs={
                int(tid): (Space(space), addr)
                for tid, (space, addr) in payload.get("addrs", {}).items()
            },
            values={int(t): v for t, v in payload.get("values", {}).items()},
            scope=Scope(payload["scope"]) if "scope" in payload else None,
            then_mask=frozenset(payload.get("then_mask", ())),
            width=payload.get("width", 4),
            pc=payload.get("pc", -1),
        )
        if record.kind in MEMORY_KINDS and not (
                isinstance(record.width, int)
                and 1 <= record.width <= MAX_ACCESS_BYTES):
            raise ValueError(
                f"access width {record.width} outside 1..{MAX_ACCESS_BYTES}")
        # The detector orders and indexes by these: a string (or a bool,
        # which JSON spells differently) must not get that far.
        for name, numbers in (
            ("warp", (record.warp,)),
            ("pc", (record.pc,)),
            ("active", record.active),
            ("then_mask", record.then_mask),
            ("addrs", [addr for _space, addr in record.addrs.values()]),
            ("values", [v for v in record.values.values() if v is not None]),
        ):
            for number in numbers:
                if type(number) is not int:
                    raise TypeError(f"{name} holds {number!r}, not an integer")
    except (KeyError, ValueError, TypeError) as exc:
        raise ReproError(f"malformed capture record: {exc}") from exc
    return record


def apply_line_fault(line: str, fault) -> str:
    """Corrupt one capture line per an active ``replay.record_line`` fault."""
    if fault.kind == fault_sites.TRUNCATE_LINE:
        keep = int(fault.arg("keep_chars", len(line) // 2))
        return line[:max(0, min(keep, max(len(line) - 1, 0)))]
    return str(fault.arg("text", "}{ injected garbage"))


def record_lines_to_records(lines: Iterable[str], faults=NULL_FAULTS,
                            lineno: int = 0) -> List[LogRecord]:
    """Decode a batch of capture JSONL record lines in one pass.

    All malformedness — garbage JSON, a non-object line, missing or
    mistyped fields — surfaces as :class:`ReproError` so consumers (the
    offline loader and the detection service) can fail one capture
    cleanly instead of crashing on a stray ``JSONDecodeError``.  With
    ``lineno`` (the capture line number of the first line) the error
    says which line.

    An active fault plan may corrupt a line before parsing (the
    ``replay.record_line`` site), which exercises exactly this error
    surface.  The JSON decoder and record constructor are resolved once:
    this is the ingest path the service workers use.
    """
    injector = resolve_faults(faults)
    loads = json.loads
    from_json = _record_from_json
    records: List[LogRecord] = []
    append = records.append
    for offset, line in enumerate(lines):
        if injector is not None:
            fault = injector.check(fault_sites.REPLAY_LINE, len(line))
            if fault is not None:
                line = apply_line_fault(line, fault)
        try:
            payload = loads(line)
        except json.JSONDecodeError as exc:
            where = f" on line {lineno + offset}" if lineno else ""
            raise ReproError(f"garbage JSON{where}: {exc}") from exc
        if not isinstance(payload, dict):
            where = f" on line {lineno + offset}" if lineno else ""
            raise ReproError(f"capture record{where} is not a JSON object")
        append(from_json(payload))
    return records


def record_line_to_record(line: str, lineno: int = 0,
                          faults=NULL_FAULTS) -> LogRecord:
    """Parse one capture JSONL record line: the one-line case of
    :func:`record_lines_to_records` (same errors, same fault site)."""
    return record_lines_to_records((line,), faults, lineno)[0]


def read_header(header_line: str) -> Tuple[GridLayout, str]:
    """Parse and validate a capture header line; returns (layout, kernel)."""
    if not header_line.strip():
        raise ReproError("empty capture")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed capture header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "barracuda-capture":
        raise ReproError("not a barracuda capture")
    if header.get("version") != FORMAT_VERSION:
        raise ReproError(f"unsupported capture version {header.get('version')}")
    try:
        layout = header["layout"]
        shape = [layout[name] for name in _LAYOUT_FIELDS]
        # The header is outside input and the layout sizes everything the
        # detector allocates: a float, a bool or 4e10 threads stops here.
        for name, value in zip(_LAYOUT_FIELDS, shape):
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} is {value!r}, not a positive integer")
        if shape[0] * shape[1] > MAX_CAPTURE_THREADS:
            raise ValueError(
                f"{shape[0]} blocks x {shape[1]} threads exceeds the "
                f"{MAX_CAPTURE_THREADS}-thread capture limit")
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed capture layout: {exc}") from exc
    return GridLayout(*shape), header.get("kernel", "")


def capture_header_line(layout: GridLayout, kernel: str = "") -> str:
    """The header every capture starts with — a JSONL capture's first
    line, a binary capture's first frame, the service's ``OPEN`` frame —
    as :func:`read_header` parses it back."""
    return json.dumps({
        "format": "barracuda-capture",
        "version": FORMAT_VERSION,
        "kernel": kernel,
        "layout": {name: getattr(layout, name) for name in _LAYOUT_FIELDS},
    })


def save_capture(
    stream: IO[str],
    layout: GridLayout,
    records: Iterable[LogRecord],
    kernel: str = "",
) -> int:
    """Write a capture; returns the number of records written."""
    stream.write(capture_header_line(layout, kernel) + "\n")
    count = 0
    for record in records:
        stream.write(json.dumps(_record_to_json(record)) + "\n")
        count += 1
    return count


def load_capture(stream: IO[str],
                 faults=NULL_FAULTS) -> Tuple[GridLayout, str, List[LogRecord]]:
    """Read a capture back; returns (layout, kernel name, records)."""
    header_line = stream.readline()
    if not header_line:
        raise ReproError("empty capture")
    layout, kernel = read_header(header_line)
    # Resolved once: a plan handed in as a plan counts hits across the
    # whole capture, not afresh on every line.
    injector = resolve_faults(faults)
    records = [
        record_line_to_record(line, lineno, faults=injector)
        for lineno, line in enumerate(stream, start=2)
        if line.strip()
    ]
    return layout, kernel, records


# ----------------------------------------------------------------------
# Binary captures: the same header and records as JSONL, framed like the
# service protocol (a length prefix per frame) with columnar batch
# payloads.  Frame 0 is the JSON header; every later frame is one
# :class:`~repro.columnar.ColumnarBatch` (see ``docs/performance.md``
# for the byte-level spec).
# ----------------------------------------------------------------------
def write_frame(stream: IO[bytes], payload: bytes) -> None:
    """Write one length-prefixed frame (the protocol's framing rule)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ReproError(
            f"capture frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    stream.write(_FRAME_LENGTH.pack(len(payload)))
    stream.write(payload)


def read_frame(stream: IO[bytes]) -> Optional[bytes]:
    """Read one frame; None at a clean EOF, :class:`ReproError` on a tear."""
    prefix = stream.read(_FRAME_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _FRAME_LENGTH.size:
        raise ReproError("truncated binary capture: torn frame length")
    (length,) = _FRAME_LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ReproError(
            f"corrupt binary capture: frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    payload = stream.read(length)
    if len(payload) < length:
        raise ReproError(
            f"truncated binary capture: frame promised {length} bytes, "
            f"got {len(payload)}"
        )
    return payload


def write_binary_header(stream: IO[bytes], layout: GridLayout,
                        kernel: str = "") -> None:
    """Magic + version + header frame; call once before any batches."""
    stream.write(BINARY_MAGIC)
    stream.write(struct.pack("<H", BINARY_VERSION))
    write_frame(stream, capture_header_line(layout, kernel).encode("utf-8"))


def write_binary_batch(stream: IO[bytes], batch: ColumnarBatch) -> None:
    write_frame(stream, encode_batch(batch))


def read_binary_header(stream: IO[bytes]) -> Tuple[GridLayout, str]:
    """Validate magic/version and parse the header frame (the same JSON
    object as a JSONL capture's first line)."""
    magic = stream.read(len(BINARY_MAGIC))
    if magic != BINARY_MAGIC:
        raise ReproError("not a binary barracuda capture (bad magic)")
    version_bytes = stream.read(2)
    if len(version_bytes) < 2:
        raise ReproError("truncated binary capture: missing version")
    (version,) = struct.unpack("<H", version_bytes)
    if version != BINARY_VERSION:
        raise ReproError(f"unsupported binary capture version {version}")
    header_frame = read_frame(stream)
    if header_frame is None:
        raise ReproError("truncated binary capture: missing header frame")
    try:
        return read_header(header_frame.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"corrupt binary capture: header is not UTF-8: {exc}") from exc


def iter_binary_frames(stream: IO[bytes]) -> Iterator[bytes]:
    """Raw encoded batch payloads until a clean EOF (header consumed)."""
    return iter(lambda: read_frame(stream), None)


def save_capture_binary(
    stream: IO[bytes],
    layout: GridLayout,
    records: Iterable[Union[LogRecord, ColumnarBatch]],
    kernel: str = "",
    batch_records: int = DEFAULT_BATCH_RECORDS,
) -> int:
    """Write a binary capture of records, packed into batches of at most
    ``batch_records`` rows, or of batches (a launch's ``captured`` row
    log), written as they stand; returns the number of records written."""
    # A bad count fails here, before the header is written.
    batches = iter_batches(records, batch_records=batch_records)
    write_binary_header(stream, layout, kernel)
    count = 0
    for batch in batches:
        write_binary_batch(stream, batch)
        count += len(batch)
    return count


def load_capture_binary(
    stream: IO[bytes],
) -> Tuple[GridLayout, str, List[ColumnarBatch]]:
    """Read a binary capture back; returns (layout, kernel, batches)."""
    layout, kernel = read_binary_header(stream)
    return layout, kernel, list(map(decode_batch, iter_binary_frames(stream)))


def detect_capture_format(path: str) -> Optional[str]:
    """What kind of capture ``path`` holds, decided by its content and
    never by its name: ``"binary"`` (the BCAP magic), ``"jsonl"`` (a
    first line that parses as the ``"format": "barracuda-capture"``
    header), or ``None`` for anything else — kernel source, say."""
    with open(path, "rb") as stream:
        head = stream.readline(_SNIFF_BYTES)
    if head.startswith(BINARY_MAGIC):
        return "binary"
    try:
        header = json.loads(head)
    except ValueError:  # not JSON, or not UTF-8
        return None
    if isinstance(header, dict) and header.get("format") == "barracuda-capture":
        return "jsonl"
    return None


def load_capture_path_batches(
    path: str, faults=NULL_FAULTS,
) -> Tuple[GridLayout, str, List[ColumnarBatch], str]:
    """Load a capture of either format as columnar batches.

    JSONL captures are columnarized on load (bit-identical records);
    binary captures decode straight into batches.  Anything that is not
    a binary capture is read as JSONL, so a file that is no capture at
    all fails with the header's own error.  Every front door loads
    captures here, so rows outside the header's layout stop here.
    """
    if detect_capture_format(path) == "binary":
        fmt = "binary"
        with open(path, "rb") as stream:
            layout, kernel, batches = load_capture_binary(stream)
    else:
        fmt = "jsonl"
        try:
            with open(path, "r", encoding="utf-8") as stream:
                layout, kernel, records = load_capture(stream, faults=faults)
        except UnicodeDecodeError as exc:
            raise ReproError(f"not a barracuda capture: {exc}") from exc
        batches = list(iter_batches(records))
    for batch in batches:
        batch.check_layout(layout)
    return layout, kernel, batches, fmt


def convert_capture(
    src: str, dst: str, to_format: Optional[str] = None,
    batch_records: int = DEFAULT_BATCH_RECORDS,
) -> Tuple[str, str, int]:
    """Convert a capture between JSONL and binary (``repro convert``).

    The target format defaults to the opposite of the (magic-detected)
    source format.  Returns ``(source format, target format, records)``.
    Lossless in both directions: the record streams compare equal.
    """
    layout, kernel, batches, src_fmt = load_capture_path_batches(src)
    records = (record for batch in batches for record in batch.to_records())
    if to_format is None:
        to_format = "jsonl" if src_fmt == "binary" else "binary"
    if to_format not in ("jsonl", "binary"):
        raise ReproError(f"unknown capture format {to_format!r}")
    if to_format == "binary":
        with open(dst, "wb") as stream:
            count = save_capture_binary(
                stream, layout, records, kernel=kernel,
                batch_records=batch_records)
    else:
        with open(dst, "w", encoding="utf-8") as stream:
            count = save_capture(stream, layout, records, kernel=kernel)
    return src_fmt, to_format, count


def replay_detector(
    layout: GridLayout,
    batches: Iterable[ColumnarBatch],
    config: Optional[DetectorConfig] = None,
) -> BarracudaDetector:
    """Run the production detector over columnar batches (fused loop);
    returns the detector, whose state ``repro replay --metrics`` reads."""
    resolved = config or DetectorConfig()
    detector = BarracudaDetector(layout, resolved)
    granularity = resolved.granularity_bytes
    for batch in batches:
        detector.process_columnar(batch, granularity)
    return detector


def replay_batches(
    layout: GridLayout,
    batches: Iterable[ColumnarBatch],
    config: Optional[DetectorConfig] = None,
) -> DetectorReports:
    """Run the production detector over columnar batches (fused loop)."""
    return replay_detector(layout, batches, config).reports


def replay(
    layout: GridLayout,
    records: Iterable[Union[LogRecord, ColumnarBatch]],
    config: Optional[DetectorConfig] = None,
    reference: bool = False,
) -> DetectorReports:
    """Run the detector over a captured record stream.

    ``records`` may mix plain :class:`LogRecord` items and
    :class:`~repro.columnar.ColumnarBatch` items (the binary loader
    yields the latter).  ``reference=True`` replays through the
    uncompressed reference detector instead of the production one — the
    capture format is how the two are cross-checked on real workloads,
    not just on random traces.
    """
    if not reference:
        return replay_batches(layout, iter_batches(records), config)
    from ..core.reference import ReferenceDetector

    granularity = (config or DetectorConfig()).granularity_bytes
    detector = ReferenceDetector(layout, config)
    for batch in iter_batches(records):
        for op in rows_to_ops(batch, layout, granularity):
            detector.process(op)
    return detector.reports
