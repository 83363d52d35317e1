"""Columnar warp-batches and the binary capture format.

Three contracts pinned here:

* **losslessness** — every row the engine can emit round trips through
  the columnar batch and the binary codec unchanged;
* **one canonical record** — a row the engine cannot emit (an address
  map that is not the active mask, a ``None`` stored value, an integer
  outside int64, a warp, block or lane outside the launch) is a
  one-line ``ReproError`` where a capture enters, and every engine
  stream of the suite and Table 1 passes that boundary untouched;
* **detection exactness** — the fused detector/host paths report
  exactly what the per-record oracle (``tests/oracle.py``: every row
  expanded by ``rows_to_ops``, packed back one lane per cell by
  ``ops_to_rows`` and run lane by lane) reports; and ``ops_to_rows``
  inverts ``rows_to_ops`` on feasible traces and every corpus capture.
"""

import dataclasses
import functools
import io
import json
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli, jobs
from repro.bench import ALL_WORKLOADS
from repro.columnar import (
    KIND_CODE,
    KINDS,
    SCOPE_CODE,
    SCOPES,
    SPACE_CODE,
    SPACES,
    ColumnarBatch,
    ColumnarBuilder,
    RowLog,
    _LaneView,
    batch_record_count,
    decode_batch,
    encode_batch,
    iter_batches,
    ops_to_rows,
    rows_to_ops,
)
from repro.core.detector import BarracudaDetector
from repro.core.reference import DetectorConfig
from repro.cudac import compile_cuda
from repro.errors import ReproError
from repro.events import MEMORY_KINDS, LogRecord, RecordKind
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.jobs import launch_spec, record_stream
from repro.predict import LaunchSpec
from repro.runtime.host import HostDetector, RowSink
from repro.runtime.queue import QueueSet
from repro.runtime.replay import (
    RecordingSink,
    _record_from_json,
    _record_to_json,
    capture_header_line,
    convert_capture,
    load_capture,
    load_capture_binary,
    load_capture_path_batches,
    record_line_to_record,
    replay,
    save_capture,
    save_capture_binary,
    write_binary_header,
    write_frame,
)
from repro.service import protocol
from repro.suite import ALL_PROGRAMS, SCHEDULE_PROGRAMS
from repro.trace import GridLayout
from repro.trace.operations import Scope, Space, Write

from oracle import oracle_engine, per_record_oracle
from tracegen import feasible_traces

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
    data[1] = 7;
}
"""


def _capture(source=RACY, grid=2, block=32, warp_size=8):
    module, _ = Instrumenter().instrument_module(compile_cuda(source))
    device = GpuDevice()
    data = device.alloc(16)
    sink = ListSink()
    device.launch(module, module.kernels[0].name, grid=grid, block=block,
                  warp_size=warp_size, params={"data": data}, sink=sink,
                  instrumented=True)
    layout = LaunchConfig.of(grid, block, warp_size).layout()
    return layout, sink.records


def _race_keys(reports):
    return [(r.loc, r.prior_tid, r.current_tid, r.kind, r.branch_ordering)
            for r in reports.races]


# ----------------------------------------------------------------------
# Hypothesis: rows through batch + binary codec
# ----------------------------------------------------------------------
_TIDS = st.integers(min_value=0, max_value=7)
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_I64 = st.one_of(st.integers(min_value=0, max_value=1 << 20),
                 st.sampled_from([_I64_MIN, -1, _I64_MAX]))
#: Just outside int64: no column holds these.
_OUTSIDE_I64 = st.sampled_from([_I64_MIN - 1, _I64_MAX + 1, 1 << 70])


@st.composite
def log_records(draw):
    """Canonical rows: the shapes the engine emits, every integer in
    int64 — a memory row's ``addrs`` name exactly its active tids and
    its ``values`` some of them; a control row carries neither."""
    kind = draw(st.sampled_from(list(RecordKind)))
    active = frozenset(draw(st.sets(_TIDS, min_size=0, max_size=6)))
    addrs, values = {}, {}
    if kind in MEMORY_KINDS:
        addrs = {tid: (draw(st.sampled_from([Space.GLOBAL, Space.SHARED])),
                       draw(_I64))
                 for tid in active}
        values = {tid: draw(_I64) for tid in active if draw(st.booleans())}
    return LogRecord(
        kind=kind,
        warp=draw(st.integers(min_value=0, max_value=5)),
        active=active,
        addrs=addrs,
        values=values,
        scope=draw(st.sampled_from([None, Scope.BLOCK, Scope.GLOBAL])),
        then_mask=frozenset(draw(st.sets(_TIDS, min_size=0, max_size=4))),
        width=draw(st.sampled_from([1, 2, 4, 8])),
        pc=draw(st.integers(min_value=-1, max_value=99)),
    )


@st.composite
def non_canonical_records(draw):
    """A canonical row broken in one way the engine never breaks one."""
    record = draw(log_records())
    memory = record.kind in MEMORY_KINDS
    breaks = ["warp", "pc", "width", "tid"]
    if memory:
        breaks += ["drop-address", "extra-address", "stray-value",
                   "address"]
        if record.active:
            breaks += ["none-value", "value"]
    else:
        breaks += ["control-addrs"]
    how = draw(st.sampled_from(breaks))
    outside = draw(_OUTSIDE_I64)
    addrs, values = dict(record.addrs), dict(record.values)
    fields = {}
    if how in ("warp", "pc", "width"):
        fields[how] = outside
    elif how == "tid":
        fields["active"] = record.active | {outside}
        if memory:
            addrs[outside] = (Space.GLOBAL, 0)
    elif how == "drop-address":
        fields["active"] = record.active | {8}
    elif how == "extra-address":
        addrs[8] = (Space.GLOBAL, 0)
    elif how == "stray-value":
        values[8] = 1
    elif how == "address":
        fields["active"] = record.active | {8}
        addrs[8] = (Space.SHARED, outside)
    elif how == "control-addrs":
        addrs[0] = (Space.GLOBAL, 0)
    else:
        values[draw(st.sampled_from(sorted(record.active)))] = (
            None if how == "none-value" else outside)
    return dataclasses.replace(record, addrs=addrs, values=values, **fields)


_DETECT_LAYOUT = LaunchConfig.of(2, 8, 4).layout()  # 4 warps of 4 threads


@st.composite
def memory_records(draw):
    """The memory-rows-only sibling of ``log_records``, over tids and
    warps ``_DETECT_LAYOUT`` has: every width the engine emits, addresses
    that are unaligned and straddle cells, both spaces, and rows naming
    only part of their warp."""
    warp = draw(st.integers(min_value=0, max_value=3))
    lanes = st.integers(min_value=4 * warp, max_value=4 * warp + 3)
    tids = draw(st.sets(lanes, min_size=0, max_size=4))
    kind = draw(st.sampled_from(
        [RecordKind.LOAD, RecordKind.STORE, RecordKind.ATOMIC]))
    values = {}
    if kind is RecordKind.STORE:
        values = {tid: draw(st.integers(min_value=0, max_value=2))
                  for tid in tids if draw(st.booleans())}
    return LogRecord(
        kind=kind,
        warp=warp,
        active=frozenset(tids),
        addrs={tid: (draw(st.sampled_from([Space.GLOBAL, Space.SHARED])),
                     draw(st.integers(min_value=0, max_value=40)))
               for tid in tids},
        values=values,
        width=draw(st.sampled_from([1, 2, 4, 8, 16, 32])),
        pc=draw(st.integers(min_value=-1, max_value=9)),
    )


#: The shadow-cell size of one example: the test's ``granularity`` and
#: the width of that example's coalesced rows (a row is one range access
#: only when the two agree).
_GRANULARITY = st.shared(st.sampled_from([1, 2, 4, 8]), key="granularity")


@st.composite
def coalesced_records(draw):
    """Rows whose lane ``i`` is on the cell at ``base + i * width`` —
    what the fused loop takes as one range access: full and partial
    warps, both spaces, bases a cell or two apart so neighbouring rows
    straddle (``replay_scale``'s misaligned-by-one shared load), one in
    four a byte off the cell grid, values from {0, 1} so the same and
    other warps rewrite the same value — or a block barrier, so that
    some of those meetings are ordered."""
    warp = draw(st.integers(min_value=0, max_value=3))
    if not draw(st.integers(min_value=0, max_value=5)):
        block = warp // 2
        return LogRecord(kind=RecordKind.BARRIER, warp=block,
                         active=frozenset(range(8 * block, 8 * block + 8)))
    width = draw(_GRANULARITY)
    tids = range(4 * warp, 4 * warp + 4)[
        draw(st.sampled_from([0, 0, 1])):draw(st.sampled_from([4, 4, 3]))]
    kind = draw(st.sampled_from(
        [RecordKind.LOAD, RecordKind.STORE, RecordKind.STORE]))
    space = draw(st.sampled_from([Space.GLOBAL, Space.SHARED]))
    base = (width * draw(st.integers(min_value=0, max_value=6))
            + draw(st.sampled_from([0, 0, 0, 1])))
    return LogRecord(
        kind=kind,
        warp=warp,
        active=frozenset(tids),
        addrs={tid: (space, base + width * i) for i, tid in enumerate(tids)},
        values=({tid: draw(st.integers(min_value=0, max_value=1))
                 for tid in tids} if kind is RecordKind.STORE else {}),
        width=width,
        pc=draw(st.integers(min_value=-1, max_value=9)),
    )


@st.composite
def memory_streams(draw):
    """Memory rows behind an optional divergence prefix, so some of the
    lanes the rows name are inactive (their operations are NOPs)."""
    prefix = []
    for warp in draw(st.sets(st.integers(min_value=0, max_value=3))):
        tids = range(4 * warp, 4 * warp + 4)
        then_mask = draw(st.sets(st.sampled_from(tids), min_size=1))
        prefix.append(LogRecord(
            kind=RecordKind.BRANCH_IF, warp=warp, active=frozenset(tids),
            then_mask=frozenset(then_mask), pc=0))
    return prefix + draw(st.lists(
        st.one_of(memory_records(), coalesced_records(), coalesced_records()),
        max_size=14))


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(log_records(), max_size=12))
    def test_batch_and_binary_round_trip(self, records):
        batch = ColumnarBatch.from_records(records)
        assert batch.to_records() == records
        payload = encode_batch(batch)
        assert batch_record_count(payload) == len(records)
        decoded = decode_batch(payload)
        assert decoded.to_records() == records

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(log_records(), max_size=8),
           batch_records=st.integers(min_value=1, max_value=5))
    def test_binary_capture_round_trip(self, records, batch_records):
        layout = LaunchConfig.of(2, 8, 4).layout()
        stream = io.BytesIO()
        written = save_capture_binary(stream, layout, records, kernel="k",
                                      batch_records=batch_records)
        assert written == len(records)
        stream.seek(0)
        loaded_layout, kernel, batches = load_capture_binary(stream)
        assert loaded_layout == layout
        assert kernel == "k"
        assert [r for b in batches for r in b.to_records()] == records

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(log_records(), max_size=8),
           cut=st.tuples(st.integers(0, 8), st.integers(0, 8)),
           batch_records=st.integers(min_value=1, max_value=5))
    def test_binary_capture_of_records_and_a_batch(self, records, cut,
                                                   batch_records):
        # A batch among the records is written as it stands, in its place.
        lo, hi = sorted(cut)
        items = (records[:lo] + [ColumnarBatch.from_records(records[lo:hi])]
                 + records[hi:])
        stream = io.BytesIO()
        written = save_capture_binary(stream, LaunchConfig.of(2, 8, 4).layout(),
                                      items, batch_records=batch_records)
        assert written == len(records)
        stream.seek(0)
        _layout, _kernel, batches = load_capture_binary(stream)
        assert [r for b in batches for r in b.to_records()] == records

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(log_records(), max_size=10))
    def test_wire_armor_round_trip(self, records):
        payload = encode_batch(ColumnarBatch.from_records(records))
        encoded, count = protocol.encode_batch_wire(payload)
        assert count == len(records)
        assert protocol.decode_batch_wire(encoded).to_records() == records

    @settings(max_examples=200, deadline=None)
    @given(record=non_canonical_records())
    def test_non_canonical_row_is_a_one_line_error(self, record):
        with pytest.raises(ReproError) as excinfo:
            ColumnarBatch.from_records([record])
        message = str(excinfo.value)
        assert "\n" not in message
        where = "block" if record.kind is RecordKind.BARRIER else "warp"
        assert message.startswith(
            f"{record.kind.value} row ({where} {record.warp}, "
            f"pc {record.pc}): ")


class TestHostileInput:
    def _payload(self):
        layout, records = _capture()
        stream = io.BytesIO()
        save_capture_binary(stream, layout, records, kernel="k")
        return stream.getvalue()

    def test_truncations_rejected_cleanly(self):
        data = self._payload()
        # Every strict prefix either loads fewer complete frames or
        # raises ReproError — never a different exception, never junk.
        for cut in range(len(data) - 1):
            stream = io.BytesIO(data[:cut])
            try:
                load_capture_binary(stream)
            except ReproError:
                continue

    def test_bad_magic_rejected(self):
        with pytest.raises(ReproError, match="magic"):
            load_capture_binary(io.BytesIO(b"JUNK" + self._payload()[4:]))

    def test_bad_version_rejected(self):
        data = bytearray(self._payload())
        data[4] = 0xFF
        with pytest.raises(ReproError, match="version"):
            load_capture_binary(io.BytesIO(bytes(data)))

    def test_oversized_frame_length_rejected(self):
        data = self._payload()[:6] + b"\xff\xff\xff\xff"
        with pytest.raises(ReproError, match="frame"):
            load_capture_binary(io.BytesIO(data))

    def test_garbage_batch_payload_rejected(self):
        layout = LaunchConfig.of(1, 4, 4).layout()
        stream = io.BytesIO()
        save_capture_binary(stream, layout, [], kernel="k")
        stream.write(b"\x00\x00\x00\x08garbage!")
        stream.seek(0)
        with pytest.raises(ReproError):
            load_capture_binary(stream)

    @pytest.mark.parametrize("width", [0, -4, 33, 1 << 40])
    @pytest.mark.parametrize("addr", [0], ids=["column"])
    def test_memory_row_width_outside_1_to_32_rejected(self, width, addr):
        # The width sizes the shadow-cell expansion; the engine emits at
        # most type_width * vector_count = 32 bytes.
        layout = LaunchConfig.of(1, 4, 4).layout()
        record = LogRecord(kind=RecordKind.LOAD, warp=0,
                           active=frozenset({0}),
                           addrs={0: (Space.GLOBAL, addr)}, width=width)
        stream = io.BytesIO()
        save_capture_binary(stream, layout, [record], kernel="k")
        stream.seek(0)
        with pytest.raises(ReproError, match="access width"):
            load_capture_binary(stream)

    def test_jsonl_record_width_outside_1_to_32_rejected(self):
        line = ('{"kind": "store", "warp": 0, "active": [0], '
                '"addrs": {"0": ["global", 0]}, "width": %s}')
        assert record_line_to_record(line % 32).width == 32
        for width in ("0", "33", str(1 << 40), "4.5", '"4"'):
            with pytest.raises(ReproError, match="malformed capture record"):
                record_line_to_record(line % width)
        # Only memory rows carry a width the detector expands.
        barrier = '{"kind": "bar", "warp": 0, "active": [0], "width": 0}'
        assert record_line_to_record(barrier).kind is RecordKind.BARRIER

    @pytest.mark.parametrize("tamper", [
        "duplicate-lane", "mask-extra", "mask-short", "unsorted"])
    def test_memory_row_lanes_must_be_its_mask_ascending(self, tamper):
        # Each of these used to decode: the fused loop then walked the
        # lanes (a duplicate twice) while ``record_to_ops`` looked
        # addresses up by mask tid and died in a ``KeyError``.
        record = LogRecord(kind=RecordKind.STORE, warp=0,
                           active=frozenset({0, 1, 2}),
                           addrs={t: (Space.GLOBAL, 4 * t) for t in range(3)},
                           values={t: t for t in range(3)})
        batch = ColumnarBatch.from_records([record])
        assert batch.masks == [(0, 1, 2)]
        if tamper == "duplicate-lane":
            batch.lane_tids[1] = 0
        elif tamper == "mask-extra":
            batch.masks[0] = (0, 1, 2, 3)
        elif tamper == "mask-short":
            batch.masks[0] = (0, 1)
        else:
            batch.lane_tids[:] = [1, 0, 2]
            batch.masks[0] = (1, 0, 2)
        with pytest.raises(ReproError, match="are not its active mask"):
            decode_batch(encode_batch(batch))
        # Control rows carry no lanes and any mask.
        barrier = LogRecord(kind=RecordKind.BARRIER, warp=0,
                            active=frozenset({2, 0, 1}))
        assert decode_batch(encode_batch(
            ColumnarBatch.from_records([barrier]))).to_records() == [barrier]

    def test_batch_record_count_truncated_header(self):
        with pytest.raises(ReproError, match="truncated"):
            batch_record_count(b"\x01\x02")

    def test_wire_bad_base64_rejected(self):
        with pytest.raises(ReproError, match="base64"):
            protocol.decode_batch_wire("not//valid base64!!")


# ----------------------------------------------------------------------
# One canonical record: the engine's rows pass the boundary, and one
# field of one row changed is a report or a one-line error
# ----------------------------------------------------------------------
CORPUS = list(ALL_PROGRAMS) + list(ALL_WORKLOADS)


def _engine_stream(entry):
    """``(layout, records, batches)`` of a corpus entry: its record stream
    (``record_stream``'s views) and the row log batches the engine wrote
    those records into."""
    logs = []

    class RowKeepingSink(ListSink):
        def emit_row(self, rows, number):
            if not logs:
                logs.append(rows)
            return super().emit_row(rows, number)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jobs, "ListSink", RowKeepingSink)
        layout, records = record_stream(entry.spec)
    return layout, records, logs[0].batches if logs else []


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_every_engine_stream_passes_the_boundary(entry):
    # The census: the builder and the layout check reject none of the
    # rows the engine emits for any suite program or Table-1 workload.
    layout, records, rows = _engine_stream(entry)
    # The engine's own batches, written without the builder's checks,
    # hold exactly the stream: consistent, inside the launch, a value on
    # every lane of a store row and on no other, and the pool the
    # builder interns from their views.
    assert [view for batch in rows for view in batch.to_records()] == records
    for batch in rows:
        assert batch.checked
        batch.validate()
        batch.check_layout(layout)
        for index, code in enumerate(batch.kinds):
            flags = batch.lane_has_value[
                batch.lane_starts[index]:batch.lane_starts[index + 1]]
            assert set(flags) <= ({1} if code == KIND_CODE[RecordKind.STORE]
                                  else {0})
        assert encode_batch(batch) == encode_batch(
            ColumnarBatch.from_records(batch.to_records()))
    batches = list(iter_batches(records))
    assert sum(len(batch) for batch in batches) == len(records)
    for batch in batches:
        batch.check_layout(layout)
        encoded = encode_batch(batch)
        # Views are lossless: re-packed (by slice, never read) they are
        # the same bytes, and each is the dict a lane-by-lane rebuild
        # makes, down to its repr.
        for source in (batch, decode_batch(encoded)):
            views = source.to_records()
            assert encode_batch(ColumnarBatch.from_records(views)) == encoded
            assert not any(_was_read(view) for view in views)
            for index, view in enumerate(views):
                plain = _rebuilt_record(source, index)
                assert view.addrs == plain.addrs == dict(view.addrs)
                assert view.values == plain.values == dict(view.values)
                assert view == plain and repr(view) == repr(plain)


CAPTURE_CORPUS = list(ALL_PROGRAMS) + list(SCHEDULE_PROGRAMS) + list(ALL_WORKLOADS)


@pytest.mark.parametrize("entry", CAPTURE_CORPUS,
                         ids=lambda entry: entry.name)
def test_a_capture_is_the_row_log(entry):
    # A session's capture is its row log's batches.  Written as they
    # stand they are the bytes of their records re-packed by the
    # builder, and those records are the stream a detector-less launch
    # of the same module emits.
    launched = launch_spec(entry.spec, capture=True, prune=False)
    launch = launched.launch
    records = launch.captured_records
    # The session's pcs are the lines of the PTX it parsed back.
    pristine = launched.session.pristine_module(launched.handle)
    assert records == record_stream(entry.spec, module=pristine)[1]
    written = []
    for items in (launch.captured, records):
        stream = io.BytesIO()
        count = save_capture_binary(stream, entry.spec.layout(), items,
                                    kernel=entry.name)
        written.append((count, stream.getvalue()))
    assert written[0] == written[1]
    assert written[0][0] == len(records) == launch.records


def _detector_outcome(detector):
    reports = detector.reports
    return (reports.races, [str(d) for d in reports.barrier_divergences],
            reports.filtered_same_value, detector.ops_processed,
            detector.clocks.joins)


def _run_ranges(layout, ranges):
    """The detector after ``(batch, start, stop)`` ranges, in order."""
    detector = BarracudaDetector(layout, DetectorConfig())
    for batch, start, stop in ranges:
        detector.process_columnar(batch, 4, start, stop)
    return detector


def _cut(batches, sizes):
    """``batches`` as consecutive ranges of the sizes ``sizes`` yields,
    each cut again at a batch's end."""
    ranges = []
    for batch in batches:
        start = 0
        while start < len(batch):
            stop = min(len(batch), start + next(sizes))
            ranges.append((batch, start, stop))
            start = stop
    return ranges


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_the_detector_does_not_care_where_a_batch_is_cut(entry):
    # The live drain hands the detector any run of committed rows: one
    # row at a time, random runs of 1 to 69 rows of the engine's own
    # batches, or the stream as one batch — the same reports, the same
    # accounting.
    layout, records, rows = _engine_stream(entry)
    whole = ColumnarBatch.from_records(records)
    rng = random.Random(entry.name)
    outcomes = [_detector_outcome(_run_ranges(layout, ranges)) for ranges in (
        [(whole, 0, None)],
        _cut([whole], iter(lambda: 1, 0)),
        _cut(rows, iter(lambda: rng.randint(1, 69), 0)),
    )]
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def _was_read(record) -> bool:
    """Whether a view of ``record`` has built its dict."""
    return any(isinstance(lanes, _LaneView) and lanes._dict is not None
               for lanes in (record.addrs, record.values))


def _rebuilt_record(batch, index) -> LogRecord:
    """Row ``index`` rebuilt lane by lane into plain dicts and fresh
    frozensets: what ``ColumnarBatch.record`` returned before views."""
    addrs, values = {}, {}
    for lane in range(batch.lane_starts[index], batch.lane_starts[index + 1]):
        tid = batch.lane_tids[lane]
        addrs[tid] = (SPACES[batch.lane_spaces[lane]], batch.lane_addrs[lane])
        if batch.lane_has_value[lane]:
            values[tid] = batch.lane_values[lane]
    scope, then_id = batch.scopes[index], batch.then_mask_ids[index]
    return LogRecord(
        kind=KINDS[batch.kinds[index]],
        warp=batch.warps[index],
        active=frozenset(batch.masks[batch.mask_ids[index]]),
        addrs=addrs,
        values=values,
        scope=SCOPES[scope] if scope >= 0 else None,
        then_mask=(frozenset(batch.masks[then_id]) if then_id >= 0
                   else frozenset()),
        width=batch.widths[index],
        pc=batch.pcs[index],
    )


_ALL_ONES_U64_PTX = """
.version 4.3
.target sm_35
.address_size 64

.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;

    ld.param.u64 %rd1, [out];
    mov.u64 %rd2, 0xFFFFFFFFFFFFFFFF;
    st.global.u64 [%rd1], %rd2;
    ret;
}
"""


def test_a_store_beyond_int64_is_logged_as_its_low_64_bits_signed():
    # The one engine row that used to leave the columns: 2**64 - 1 is
    # logged as -1, and the report is what the unsigned value gives
    # through the per-op path (6 races, 24 filtered same-value stores).
    # A row holds int64 only, so the unsigned writes are made op by op.
    spec = LaunchSpec(source=_ALL_ONES_U64_PTX, is_ptx=True, grid=2, block=8,
                      warp_size=4, buffers=(("out", 4, ()),))
    layout, records = record_stream(spec)
    stores = [r for r in records if r.kind is RecordKind.STORE]
    assert {v for r in stores for v in r.values.values()} == {-1}
    for batch in iter_batches(records):
        batch.check_layout(layout)
    unsigned = BarracudaDetector(layout, DetectorConfig())
    for batch in iter_batches(records):
        for op in rows_to_ops(batch, layout):
            if isinstance(op, Write):
                op = dataclasses.replace(op, value=op.value & ((1 << 64) - 1))
            unsigned.process(op)
    expected = unsigned.reports
    reports = replay(layout, records)
    assert _race_keys(reports) == _race_keys(expected)
    assert len(reports.races) == 6
    assert (reports.filtered_same_value == expected.filtered_same_value
            == 24)


_CP_ASYNC_16 = """
__global__ void cp16(int* src, int* out) {
    __shared__ int tile[128];
    __pipeline_memcpy_async(&tile[threadIdx.x * 4], &src[threadIdx.x * 4], 16);
    __pipeline_commit();
    __pipeline_wait_prior(0);
    __syncthreads();
    out[threadIdx.x] = tile[threadIdx.x * 4];
}
"""


def test_a_16_byte_async_copy_is_logged_by_its_low_64_bits():
    # A copy's shared-side store logs its word as a store does: all-ones
    # 16 bytes are -1, not a value no column holds (which failed the
    # launch's drain with exit 2).
    spec = LaunchSpec(source=_CP_ASYNC_16, grid=1, block=32,
                      buffers=(("src", 128, (-1,) * 8), ("out", 32, ())))
    assert not launch_spec(spec).launch.races
    _layout, records = record_stream(spec)
    copies = [r for r in records if r.kind is RecordKind.STORE
              and r.addrs[0][0] is Space.SHARED]
    assert {r.width for r in copies} == {16}
    assert {v for r in copies for v in r.values.values()} == {-1, 0}
    assert [r.values[t] for r in copies for t in (0, 1, 2)] == [-1, -1, 0]
    with oracle_engine():
        assert record_stream(spec)[1] == records


#: RACY with a block barrier, so the capture has a row naming a block.
SYNCED = RACY.replace("    data[1] = 7;",
                      "    __syncthreads();\n    data[1] = 7;")
_HUGE = 1 << 70
#: What a mutated warp, block or tid becomes: a place inside the
#: 64-thread, 8-warp launch, past it, negative, or outside int64.
_NEW_IDS = st.one_of(st.integers(min_value=-2, max_value=70),
                     st.sampled_from([99, 999, _HUGE]))


@functools.lru_cache(maxsize=None)
def _synced_rows():
    layout, records = _capture(SYNCED)
    return layout, [_record_to_json(record) for record in records]


def _mutate(rows, field, pick, new):
    """``rows`` (JSON form) with one field of one row changed."""
    rows = json.loads(json.dumps(rows))
    candidates = {
        "warp": [row for row in rows if row["kind"] != "bar"],
        "block": [row for row in rows if row["kind"] == "bar"],
        "mask": [row for row in rows if row["active"]],
        "value": [row for row in rows if row.get("values")],
    }.get(field.split("-")[0], [row for row in rows if row.get("addrs")])
    row = candidates[pick % len(candidates)]
    if field in ("warp", "block"):
        row["warp"] = new
        return rows
    keys = sorted(row["addrs"] if "addrs" in row else row["active"], key=int)
    old = keys[pick % len(keys)]
    if field == "mask":
        row["active"] = sorted(set(row["active"]) - {int(old)} | {new})
    elif field in ("lane", "addrs-key"):
        row["addrs"][str(new)] = row["addrs"].pop(old)
        if field == "lane":  # the whole lane moves to tid ``new``
            row["active"] = sorted(set(row["active"]) - {int(old)} | {new})
            if old in row.get("values", {}):
                row["values"][str(new)] = row["values"].pop(old)
    elif field == "huge-address":
        row["addrs"][old][1] = _HUGE
    else:
        key = sorted(row["values"], key=int)[pick % len(row["values"])]
        row["values"][key] = None if field == "value-none" else _HUGE
    return rows


def _in_columns(row) -> bool:
    numbers = [row["warp"], row["pc"], *row["active"],
               *row.get("then_mask", ()),
               *(int(tid) for tid in row.get("addrs", {})),
               *(addr for _space, addr in row.get("addrs", {}).values()),
               *row.get("values", {}).values()]
    return all(n is not None and _I64_MIN <= n <= _I64_MAX for n in numbers)


def _write_bcap(path, layout, rows):
    """The rows as a hostile writer can lay them out in BCAP: columns
    spelled as the row stands (no builder), and a row the columns cannot
    hold the way the previous writer stored one — a code-255 row whose
    record is a JSON entry after the mask pool, counted by the header's
    fourth u32."""
    batch, stray = ColumnarBatch(), []
    for row in rows:
        batch.mask_ids.append(len(batch.masks))
        if not _in_columns(row):
            stray.append((len(batch.kinds), row))
            batch.kinds.append(255)
            batch.warps.append(0)
            batch.pcs.append(0)
            batch.widths.append(0)
            batch.scopes.append(-1)
            batch.masks.append(())
            batch.then_mask_ids.append(-1)
            batch.lane_starts.append(len(batch.lane_tids))
            continue
        batch.kinds.append(KIND_CODE[RecordKind(row["kind"])])
        batch.warps.append(row["warp"])
        batch.pcs.append(row["pc"])
        batch.widths.append(row.get("width", 4))
        batch.scopes.append(
            SCOPE_CODE[Scope(row["scope"])] if "scope" in row else -1)
        batch.masks.append(tuple(row["active"]))
        batch.then_mask_ids.append(
            len(batch.masks) if "then_mask" in row else -1)
        if "then_mask" in row:
            batch.masks.append(tuple(row["then_mask"]))
        values = row.get("values", {})
        for tid, (space, addr) in sorted(row.get("addrs", {}).items(),
                                         key=lambda item: int(item[0])):
            batch.lane_tids.append(int(tid))
            batch.lane_spaces.append(SPACE_CODE[Space(space)])
            batch.lane_addrs.append(addr)
            batch.lane_has_value.append(int(tid in values))
            batch.lane_values.append(values.get(tid, 0))
        batch.lane_starts.append(len(batch.lane_tids))
    payload = bytearray(encode_batch(batch))
    struct.pack_into("<I", payload, 12, len(stray))
    for index, row in stray:
        blob = json.dumps(row).encode()
        payload += struct.pack("<II", index, len(blob)) + blob
    with open(path, "wb") as stream:
        write_binary_header(stream, layout, "k")
        write_frame(stream, bytes(payload))


@functools.lru_cache(maxsize=None)
def _synced_views():
    """The synced capture's rows as views of one decoded batch."""
    _layout, rows = _synced_rows()
    batch = ColumnarBatch.from_records(map(_record_from_json, rows))
    return decode_batch(encode_batch(batch)).to_records()


def _outcome(layout, record):
    """What a capture of ``record`` alone holds: its batch's bytes, or
    the one-line error that stops it."""
    try:
        batch = ColumnarBatch.from_records([record])
        batch.check_layout(layout)
    except ReproError as exc:
        return str(exc)
    return encode_batch(batch)


class TestRowsTheEngineCannotEmit:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["warp", "block", "lane", "mask",
                                  "addrs-key", "value-none", "value-huge",
                                  "huge-address"]),
           pick=st.integers(min_value=0, max_value=1 << 16),
           new=_NEW_IDS,
           view=st.booleans(),
           kind=st.sampled_from(list(RecordKind)))
    def test_one_changed_field_is_a_report_or_a_one_line_error(
            self, tmp_path, capsys, field, pick, new, view, kind):
        layout, original = _synced_rows()
        rows = _mutate(original, field, pick, new)
        # The change made to one field of a decoded row at a time, the
        # other fields left as the batch's views when ``view``: the
        # builder's copy by slice must stop exactly what it stops in
        # the plain row.
        index = next((i for i, (row, changed) in enumerate(zip(original, rows))
                      if row != changed), 0)
        plain = _record_from_json(original[index])
        base = _synced_views()[index] if view else plain
        changed = _record_from_json(rows[index])
        replacements = {"kind": kind, **{
            spec.name: getattr(changed, spec.name)
            for spec in dataclasses.fields(LogRecord)
            if getattr(changed, spec.name) != getattr(plain, spec.name)}}
        for name, value in replacements.items():
            assert _outcome(layout, dataclasses.replace(
                base, **{name: value})) == _outcome(
                    layout, dataclasses.replace(plain, **{name: value}))
        jsonl = tmp_path / "mutated.jsonl"
        jsonl.write_text("\n".join(
            [capture_header_line(layout, "k")]
            + [json.dumps(row) for row in rows]) + "\n")
        bcap = tmp_path / "mutated.bcap"
        _write_bcap(bcap, layout, rows)
        capsys.readouterr()
        for path in (jsonl, bcap):
            codes = []
            for flags in ([], ["--reference"], ["--predict"]):
                codes.append(cli.main(["replay", str(path), *flags]))
                err = capsys.readouterr().err
                if codes[-1] == 2:
                    lines = err.splitlines()
                    assert len(lines) == 1 and lines[0].startswith(
                        "error: "), err
            # Accepted or rejected, the three replays agree.
            assert codes in ([2, 2, 2],) or 2 not in codes, (path, codes)

    def test_a_hand_built_batch_is_checked_row_by_row(self):
        # Nothing proved these columns consistent (the lanes are not the
        # mask), so re-saving the batch's views must not copy its lanes
        # by slice: it stops with the error the plain rebuilt row gets.
        batch = ColumnarBatch()
        batch.kinds = [KIND_CODE[RecordKind.STORE]]
        batch.warps, batch.pcs, batch.widths = [0], [5], [4]
        batch.scopes = [-1]
        batch.mask_ids, batch.then_mask_ids = [0], [-1]
        batch.masks = [(0, 1, 2)]
        batch.lane_starts, batch.lane_tids = [0, 3], [0, 1, 3]
        batch.lane_spaces, batch.lane_addrs = [0, 0, 0], [0, 4, 12]
        batch.lane_has_value, batch.lane_values = [1, 1, 1], [7, 7, 7]
        layout = LaunchConfig.of(1, 8, 8).layout()
        errors = []
        for records in (batch.to_records(), [_rebuilt_record(batch, 0)]):
            with pytest.raises(ReproError) as raised:
                save_capture_binary(io.BytesIO(), layout, records)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] == ("store row (warp 0, pc 5): addrs "
                                          "and active mask disagree on [2, 3]")

    def test_another_rows_values_view_is_checked(self):
        # A row's two views are trusted together: one row's ``addrs``
        # with another row's ``values`` takes the plain row's path.
        active = frozenset({0, 1})
        addrs = {0: (Space.GLOBAL, 0), 1: (Space.GLOBAL, 4)}
        batch = decode_batch(encode_batch(ColumnarBatch.from_records([
            LogRecord(RecordKind.STORE, 0, active, addrs, {0: 1, 1: 2}),
            LogRecord(RecordKind.STORE, 0, active, addrs, {0: 3, 1: 4})])))
        views = batch.to_records()
        plain = [_rebuilt_record(batch, index) for index in range(2)]
        layout = LaunchConfig.of(1, 8, 8).layout()
        swapped = dataclasses.replace(plain[0], values=plain[1].values)
        assert _outcome(layout, dataclasses.replace(
            views[0], values=views[1].values)) == _outcome(layout, swapped)


# ----------------------------------------------------------------------
# Rows and §3.1 operations: ops_to_rows inverts rows_to_ops
# ----------------------------------------------------------------------
@given(feasible_traces())
def test_a_feasible_trace_packs_into_rows_that_expand_back_to_it(trace):
    rows = ops_to_rows(trace.ops, trace.layout)
    assert rows_to_ops(rows, trace.layout) == trace.ops


@pytest.mark.parametrize("entry", CAPTURE_CORPUS,
                         ids=lambda entry: entry.name)
def test_every_captured_rows_operations_pack_back_to_themselves(entry):
    layout = entry.spec.layout()
    for batch in launch_spec(entry.spec, capture=True).launch.captured:
        ops = rows_to_ops(batch, layout)
        assert rows_to_ops(ops_to_rows(ops, layout), layout) == ops


def test_a_packed_row_has_one_lane_per_cell_and_any_stored_value():
    # A 4-byte store at byte 2 covers cells 0 and 4: one lane each.  The
    # unsigned 2**64 - 1 that no capture row can hold stays as it is.
    layout = GridLayout(num_blocks=1, threads_per_block=2, warp_size=2)
    big = (1 << 64) - 1
    row = ColumnarBatch.from_records([LogRecord(
        RecordKind.STORE, 0, frozenset({0, 1}),
        addrs={0: (Space.GLOBAL, 2), 1: (Space.GLOBAL, 8)},
        values={0: 5, 1: 6}, width=4)])
    ops = [dataclasses.replace(op, value=big) if isinstance(op, Write)
           and op.tid == 1 else op for op in rows_to_ops(row, layout)]
    packed = ops_to_rows(ops, layout)
    assert (packed.lane_tids, packed.lane_addrs) == ([0, 0, 1], [0, 4, 8])
    assert packed.lane_values == [5, 5, big] and not packed.checked
    assert rows_to_ops(packed, layout) == ops


# ----------------------------------------------------------------------
# Fused detector and host paths
# ----------------------------------------------------------------------
class TestFusedDetection:
    def test_process_columnar_matches_per_op(self):
        layout, records = _capture()
        per_record = per_record_oracle(layout, records).reports
        fused = replay(layout, records)
        assert _race_keys(fused) == _race_keys(per_record)
        assert fused.filtered_same_value == per_record.filtered_same_value
        assert [str(d) for d in fused.barrier_divergences] == [
            str(d) for d in per_record.barrier_divergences]

    def test_detector_ops_accounting_identical(self):
        layout, records = _capture()
        config = DetectorConfig()
        plain = per_record_oracle(layout, records, config)
        fused = BarracudaDetector(layout, config)
        for batch in iter_batches(records, batch_records=5):
            fused.process_columnar(batch, config.granularity_bytes)
        assert fused.ops_processed == plain.ops_processed
        assert _race_keys(fused.reports) == _race_keys(plain.reports)

    @settings(max_examples=300, deadline=None)
    @given(records=memory_streams(),
           granularity=_GRANULARITY,
           batch_records=st.integers(min_value=1, max_value=6))
    def test_fused_loop_matches_per_op_on_random_memory_rows(
            self, records, granularity, batch_records):
        config = DetectorConfig(granularity_bytes=granularity)
        plain = per_record_oracle(_DETECT_LAYOUT, records, config)
        fused = BarracudaDetector(_DETECT_LAYOUT, config)
        for batch in iter_batches(records, batch_records=batch_records):
            fused.process_columnar(batch, granularity)
        assert fused.reports.races == plain.reports.races
        assert _race_keys(fused.reports) == _race_keys(plain.reports)
        assert (fused.reports.filtered_same_value
                == plain.reports.filtered_same_value)
        assert fused.ops_processed == plain.ops_processed
        assert fused.clocks.joins == plain.clocks.joins
        # The same words in the same pages, in fewer stored cells.
        assert fused.shadow.stats.words == plain.shadow.stats.words
        assert (fused.shadow.stats.global_pages
                == plain.shadow.stats.global_pages)
        assert fused.shadow.stats.entries <= plain.shadow.stats.entries

    @settings(max_examples=200, deadline=None)
    @given(records=memory_streams(),
           sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1))
    def test_fused_loop_over_any_ranges_matches_the_whole_batch(
            self, records, sizes):
        batch = ColumnarBatch.from_records(records)
        whole = _run_ranges(_DETECT_LAYOUT, [(batch, 0, len(batch))])
        cut = _run_ranges(_DETECT_LAYOUT,
                          _cut([batch], iter(sizes * (len(batch) + 1))))
        assert _detector_outcome(cut) == _detector_outcome(whole)

    def test_host_columnar_consume_identical(self):
        layout, records = _capture()
        plain = per_record_oracle(layout, records)
        fused = HostDetector(layout)
        fused.consume(records)
        assert fused.records_processed == len(records)
        assert _race_keys(fused.reports) == _race_keys(plain.reports)


# ----------------------------------------------------------------------
# The row log: records born columnar, read by range
# ----------------------------------------------------------------------
def _store_row(rows, pc):
    return rows.write(KIND_CODE[RecordKind.STORE], 0, pc, 4, -1, (0, 0b1111),
                      (0, 1, 2, 3), tids=(0, 1, 2, 3), space=0,
                      addrs=[0, 4, 8, 12], values=[pc] * 4)


class TestRowLog:
    def test_a_monitored_launch_packs_no_record(self, monkeypatch):
        # Rows are written by the engine and read where they lie: the
        # builder never runs on the live path.
        def refuse(self, record):
            raise AssertionError("ColumnarBuilder.append on the live path")

        monkeypatch.setattr(ColumnarBuilder, "append", refuse)
        spec = LaunchSpec(source=RACY, grid=2, block=32,
                          buffers=(("data", 4, ()),))
        assert launch_spec(spec).launch.races

    def test_check_capture_packs_no_record(self, monkeypatch, tmp_path,
                                           capsys):
        # `check --capture` writes the row log's batches as they stand.
        def refuse(self, record):
            raise AssertionError("ColumnarBuilder.append under --capture")

        source = tmp_path / "racy.cu"
        source.write_text(RACY)
        capture = tmp_path / "run.bcap"
        monkeypatch.setattr(ColumnarBuilder, "append", refuse)
        assert cli.main(["check", str(source), "--grid", "2", "--buffer",
                         "data:4", "--capture", str(capture)]) == 1
        monkeypatch.undo()
        _layout, kernel, batches, _fmt = load_capture_path_batches(
            str(capture))
        count = sum(map(len, batches))
        assert kernel == "racy" and count
        assert (f"({count} record(s), binary)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", [
        "partial_tail_warp", "barrier_in_divergent_branch",
        "barrier_in_both_branch_paths", "grid_sync_fixed"])
    def test_the_engines_masks_reach_the_detector_as_the_keys_bits(
            self, monkeypatch, name):
        # A control row's intern key, (warp, lane bits) pairs, is kept
        # beside its pool entry: a live launch's branch and barrier rows
        # reach the detector with no tid converted back to bits.
        spec = {p.name: p for p in ALL_PROGRAMS}[name].spec
        layout = spec.layout()

        def refuse(self, tids):
            raise AssertionError("GridLayout.bits_by_warp on the live path")

        monkeypatch.setattr(GridLayout, "bits_by_warp", refuse)
        launch = launch_spec(spec, capture=True).launch
        monkeypatch.undo()
        assert launch.records
        for batch in launch.captured:
            for mask_id, bits in batch._mask_bits.items():
                assert bits == layout.bits_by_warp(batch.masks[mask_id])

    def test_drained_numbers_are_ranges_in_commit_order(self, monkeypatch):
        rows = RowLog(_DETECT_LAYOUT, batch_rows=2)
        for pc in range(5):
            _store_row(rows, pc)
        host = HostDetector(_DETECT_LAYOUT)
        host.rows = rows
        batches = list(rows.batches)
        seen = []
        monkeypatch.setattr(
            host, "consume_columnar",
            lambda batch, start, stop: seen.append(
                (batches.index(batch), start, stop)))
        # Row 1 committed late (a withheld commit): every range is cut
        # at the gap and at each batch's end.
        host.consume_rows([0, 2, 3, 1, 4])
        assert seen == [(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 0, 1)]

    def test_a_consumed_or_closed_batch_is_dropped_unless_a_view_holds_it(
            self):
        rows = RowLog(_DETECT_LAYOUT, batch_rows=2)
        host = HostDetector(_DETECT_LAYOUT)
        queues = QueueSet(num_queues=1, capacity=8)
        sink = RecordingSink(RowSink(queues, host))
        for pc in range(5):
            sink.emit_row(rows, _store_row(rows, pc))
        first = rows.batches[0]
        host.drain(queues)
        assert host.records_processed == 5
        # The two sealed batches are gone; the open one is still written.
        assert rows.batches[:2] == [None, None] and rows.batches[2]
        assert sink.records[0].addrs.batch is first
        # Once the launch is over the log lets go of the open one too.
        rows.close()
        assert rows.batches == []
        assert [r.values[0] for r in sink.records] == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# Conversion shim
# ----------------------------------------------------------------------
class TestConvertCapture:
    def test_lossless_both_directions(self, tmp_path):
        layout, records = _capture()
        src = tmp_path / "cap.jsonl"
        with open(src, "w") as stream:
            save_capture(stream, layout, records, kernel="racy")
        binary = tmp_path / "cap.bcap"
        src_fmt, dst_fmt, count = convert_capture(str(src), str(binary))
        assert (src_fmt, dst_fmt, count) == ("jsonl", "binary", len(records))
        back = tmp_path / "back.jsonl"
        src_fmt, dst_fmt, count = convert_capture(str(binary), str(back))
        assert (src_fmt, dst_fmt, count) == ("binary", "jsonl", len(records))
        assert back.read_text() == src.read_text()
        for path in (src, binary, back):
            loaded_layout, kernel, batches, _fmt = load_capture_path_batches(
                str(path))
            assert loaded_layout == layout
            assert kernel == "racy"
            assert [r for b in batches for r in b.to_records()] == records

    def test_explicit_target_format(self, tmp_path):
        layout, records = _capture()
        src = tmp_path / "cap.jsonl"
        with open(src, "w") as stream:
            save_capture(stream, layout, records, kernel="racy")
        copy = tmp_path / "copy.jsonl"
        src_fmt, dst_fmt, _ = convert_capture(str(src), str(copy),
                                              to_format="jsonl")
        assert (src_fmt, dst_fmt) == ("jsonl", "jsonl")
        assert copy.read_text() == src.read_text()

    def test_unknown_target_format_rejected(self, tmp_path):
        layout, records = _capture()
        src = tmp_path / "cap.jsonl"
        with open(src, "w") as stream:
            save_capture(stream, layout, records)
        with pytest.raises(ReproError, match="unknown capture format"):
            convert_capture(str(src), str(tmp_path / "out"), to_format="xml")

    def test_jsonl_loader_still_loads_converted_output(self, tmp_path):
        layout, records = _capture()
        binary = tmp_path / "cap.bcap"
        with open(binary, "wb") as stream:
            save_capture_binary(stream, layout, records, kernel="racy")
        jsonl = tmp_path / "out.jsonl"
        convert_capture(str(binary), str(jsonl))
        with open(jsonl) as stream:
            loaded_layout, kernel, loaded = load_capture(stream)
        assert (loaded_layout, kernel, loaded) == (layout, "racy", records)
