"""Capture and offline replay of record streams."""

import io
import json

import pytest

from repro.cudac import compile_cuda
from repro.errors import ReproError
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.runtime.replay import (
    MAX_CAPTURE_THREADS,
    RecordingSink,
    capture_header_line,
    load_capture,
    read_header,
    replay,
    save_capture,
)

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


def test_round_trip_preserves_records():
    layout, records = _capture()
    stream = io.StringIO()
    written = save_capture(stream, layout, records, kernel="racy")
    assert written == len(records)
    stream.seek(0)
    loaded_layout, kernel, loaded = load_capture(stream)
    assert loaded_layout == layout
    assert kernel == "racy"
    assert loaded == records


def test_replay_matches_live_detection():
    layout, records = _capture()
    live = replay(layout, records)
    stream = io.StringIO()
    save_capture(stream, layout, records)
    stream.seek(0)
    loaded_layout, _kernel, loaded = load_capture(stream)
    offline = replay(loaded_layout, loaded)
    live_pairs = {(r.loc, r.prior_tid, r.current_tid) for r in live.races}
    offline_pairs = {(r.loc, r.prior_tid, r.current_tid) for r in offline.races}
    assert live_pairs == offline_pairs
    assert live_pairs  # the kernel is racy


def test_replay_through_reference_detector_agrees():
    layout, records = _capture()
    production = replay(layout, records)
    reference = replay(layout, records, reference=True)
    assert {(r.loc, r.prior_tid, r.current_tid) for r in production.races} == {
        (r.loc, r.prior_tid, r.current_tid) for r in reference.races
    }


def test_replay_with_different_config():
    from repro.core.reference import DetectorConfig

    layout, records = _capture()
    filtered = replay(layout, records)
    unfiltered = replay(layout, records, config=DetectorConfig(filter_same_value=False))
    # data[1] = 7 by every lane: filtered as benign, reported otherwise.
    assert len(unfiltered.races) > len(filtered.races)
    assert filtered.filtered_same_value > 0


def test_recording_sink_forwards():
    # A launch's rows reach the wrapped sink as rows, and the recording
    # keeps the same row log batches: the stream a plain launch emits.
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    inner = ListSink()
    recording = RecordingSink(inner)
    device.launch(module, module.kernels[0].name, grid=2, block=32,
                  warp_size=8, params={"data": device.alloc(16)},
                  sink=recording, instrumented=True)
    _layout, records = _capture()
    assert records
    assert recording.batches == inner.batches
    assert recording.records == records
    assert inner.records == records


GOOD_HEADER = (
    '{"format": "barracuda-capture", "version": 1, "kernel": "", '
    '"layout": {"num_blocks": 1, "threads_per_block": 2, "warp_size": 2}}\n'
)


def test_malformed_captures_rejected():
    with pytest.raises(ReproError):
        load_capture(io.StringIO(""))
    with pytest.raises(ReproError):
        load_capture(io.StringIO('{"format": "something-else"}\n'))
    with pytest.raises(ReproError):
        load_capture(io.StringIO(
            '{"format": "barracuda-capture", "version": 999, '
            '"layout": {"num_blocks": 1, "threads_per_block": 1, "warp_size": 1}}\n'
        ))
    with pytest.raises(ReproError):
        load_capture(io.StringIO(GOOD_HEADER + '{"kind": "not-a-kind"}\n'))


def test_unknown_format_version_rejected():
    header = GOOD_HEADER.replace('"version": 1', '"version": 2')
    with pytest.raises(ReproError, match="version"):
        load_capture(io.StringIO(header))


def test_garbage_json_header_rejected():
    with pytest.raises(ReproError):
        load_capture(io.StringIO("definitely not json\n"))
    # A JSON header that is not even an object.
    with pytest.raises(ReproError):
        load_capture(io.StringIO("[1, 2, 3]\n"))


def test_header_missing_layout_rejected():
    with pytest.raises(ReproError, match="layout"):
        load_capture(io.StringIO(
            '{"format": "barracuda-capture", "version": 1}\n'))


def _header(**layout):
    shape = {"num_blocks": 1, "threads_per_block": 2, "warp_size": 2}
    return json.dumps({"format": "barracuda-capture", "version": 1,
                       "kernel": "k", "layout": {**shape, **layout}})


@pytest.mark.parametrize("field", ["num_blocks", "threads_per_block",
                                   "warp_size"])
@pytest.mark.parametrize("hostile", [32.5, 2.0, True, "4", None, 0, -1, [2]])
def test_layout_field_that_must_be_a_positive_integer(field, hostile):
    # ``32.5`` used to pass and end the replay in a TypeError traceback.
    with pytest.raises(ReproError, match="malformed capture layout"):
        read_header(_header(**{field: hostile}))


def test_layout_that_is_not_an_object_rejected():
    line = json.dumps({"format": "barracuda-capture", "version": 1,
                       "layout": [1, 2, 2]})
    with pytest.raises(ReproError, match="malformed capture layout"):
        read_header(line)


def test_header_is_an_allocation_request_with_a_ceiling():
    # 4e10 threads used to die in a MemoryError inside PTVCManager (or
    # take the machine's memory); the clock state is built eagerly.
    with pytest.raises(ReproError, match="malformed capture layout.*limit"):
        read_header(_header(num_blocks=40_000_000, threads_per_block=1024))
    with pytest.raises(ReproError, match="limit"):
        read_header(_header(num_blocks=MAX_CAPTURE_THREADS // 2 + 1,
                            threads_per_block=2))
    layout, kernel = read_header(_header(num_blocks=MAX_CAPTURE_THREADS // 2))
    assert (layout.total_threads, kernel) == (MAX_CAPTURE_THREADS, "k")


def test_header_line_round_trips_through_read_header():
    layout = LaunchConfig.of(3, 48, 16).layout()
    assert read_header(capture_header_line(layout, "k")) == (layout, "k")


def test_garbage_json_record_line_rejected_with_line_number():
    with pytest.raises(ReproError, match="line 2"):
        load_capture(io.StringIO(GOOD_HEADER + "}{ garbage\n"))


def test_truncated_record_line_rejected():
    # A capture cut off mid-write: the last line is half a JSON object.
    with pytest.raises(ReproError):
        load_capture(io.StringIO(GOOD_HEADER + '{"kind": "store", "wa'))


def test_non_object_record_line_rejected():
    with pytest.raises(ReproError, match="not a JSON object"):
        load_capture(io.StringIO(GOOD_HEADER + "[1, 2]\n"))


def test_record_with_wrong_field_types_rejected():
    with pytest.raises(ReproError):
        load_capture(io.StringIO(
            GOOD_HEADER + '{"kind": "store", "warp": 0, "active": [0], '
            '"addrs": {"0": "not-a-pair"}}\n'))


@pytest.mark.parametrize("field, hostile", [
    ("warp", "w"), ("warp", True), ("warp", 0.0),
    ("pc", "p"), ("pc", False),
    ("active", ["0"]), ("active", [True]),
    ("then_mask", ["0"]), ("then_mask", [0.5]),
    ("addrs", {"0": ["global", "x"]}), ("addrs", {"0": ["global", True]}),
    ("addrs", {"x": ["global", 64]}),
    ("values", {"x": 1}),
])
def test_record_field_that_must_be_an_integer(field, hostile):
    record = {"kind": "store", "warp": 0, "active": [0], "pc": 3,
              "addrs": {"0": ["global", 64]}, "values": {"0": 1},
              "then_mask": [], "width": 4}
    load_capture(io.StringIO(GOOD_HEADER + json.dumps(record) + "\n"))
    record[field] = hostile
    with pytest.raises(ReproError, match="malformed capture record"):
        load_capture(io.StringIO(GOOD_HEADER + json.dumps(record) + "\n"))


def test_header_only_capture_is_valid_and_empty():
    layout, kernel, records = load_capture(io.StringIO(GOOD_HEADER))
    assert records == []
    assert layout.threads_per_block == 2
