"""Columnar warp-batches and the binary capture format.

Two contracts pinned here:

* **losslessness** — every :class:`LogRecord`, including adversarial
  shapes the flat columns cannot express (huge addresses, ``None``
  stored values, address maps disagreeing with the active mask), round
  trips through the columnar batch and the binary codec unchanged;
* **detection exactness** — the fused detector/host paths report
  exactly what the per-record oracle (``record_to_ops`` →
  ``BarracudaDetector.process``, driven from here) reports.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnarBatch,
    batch_record_count,
    decode_batch,
    encode_batch,
    iter_batches,
)
from repro.core.detector import BarracudaDetector
from repro.core.reference import DetectorConfig
from repro.cudac import compile_cuda
from repro.errors import ReproError
from repro.events import LogRecord, RecordKind
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.runtime.host import HostDetector
from repro.runtime.replay import (
    convert_capture,
    load_capture,
    load_capture_binary,
    load_capture_path_batches,
    record_line_to_record,
    replay,
    save_capture,
    save_capture_binary,
)
from repro.service import protocol
from repro.trace.operations import Scope, Space

from oracle import per_record_oracle

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
# Hypothesis: arbitrary records through batch + binary codec
# ----------------------------------------------------------------------
_TIDS = st.integers(min_value=0, max_value=7)
_ADDRS = st.one_of(
    st.integers(min_value=0, max_value=1 << 20),
    # Outside int64: must survive via the extras side table.
    st.integers(min_value=1 << 63, max_value=1 << 70),
)


@st.composite
def log_records(draw):
    kind = draw(st.sampled_from(list(RecordKind)))
    active = frozenset(draw(st.sets(_TIDS, min_size=0, max_size=6)))
    addr_tids = draw(st.sets(_TIDS, min_size=0, max_size=6))
    addrs = {
        tid: (draw(st.sampled_from([Space.GLOBAL, Space.SHARED])),
              draw(_ADDRS))
        for tid in addr_tids
    }
    values = {
        tid: draw(st.one_of(st.none(),
                            st.integers(min_value=-(1 << 40),
                                        max_value=1 << 40)))
        for tid in addr_tids if draw(st.booleans())
    }
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


_DETECT_LAYOUT = LaunchConfig.of(2, 8, 4).layout()  # 4 warps of 4 threads


@st.composite
def memory_records(draw):
    """The memory-rows-only sibling of ``log_records``, over tids and
    warps ``_DETECT_LAYOUT`` has: every width the engine emits, addresses
    that are unaligned and straddle cells, both spaces, rows naming only
    part of their warp, and (one row in four) lanes scattered outside it
    — the rows the fused loop must hand to the per-op path."""
    warp = draw(st.integers(min_value=0, max_value=3))
    if draw(st.integers(min_value=0, max_value=3)):
        lanes = st.integers(min_value=4 * warp, max_value=4 * warp + 3)
    else:
        lanes = st.integers(min_value=0, max_value=15)
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
        assert [r for b in batches for r in b.iter_records()] == records

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(log_records(), max_size=10))
    def test_wire_armor_round_trip(self, records):
        payload = encode_batch(ColumnarBatch.from_records(records))
        encoded, count = protocol.encode_batch_wire(payload)
        assert count == len(records)
        assert protocol.decode_batch_wire(encoded).to_records() == records


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
    @pytest.mark.parametrize("addr", [0, 1 << 65], ids=["column", "extras"])
    def test_memory_row_width_outside_1_to_32_rejected(self, width, addr):
        # The width sizes the shadow-cell expansion; the engine emits at
        # most type_width * vector_count = 32 bytes.  ``addr`` picks the
        # boundary: a flat column row, or an extras-table JSON record.
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

    def test_host_columnar_consume_identical(self):
        layout, records = _capture()
        plain = per_record_oracle(layout, records)
        fused = HostDetector(layout)
        fused.consume(records)
        assert fused.records_processed == len(records)
        assert _race_keys(fused.reports) == _race_keys(plain.reports)


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
            assert [r for b in batches for r in b.iter_records()] == records

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
