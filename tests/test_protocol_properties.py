"""Property tests for the wire protocol and the retry layer.

Four families, all driven by Hypothesis:

* framing — any JSON message survives encode → arbitrarily-chunked
  decode, and any mutation or truncation of the byte stream produces
  either valid messages or a clean :class:`ProtocolError`, never any
  other exception;
* backoff — the pre-jitter delay curve is monotone non-decreasing and
  capped, realized delays stay inside the jitter envelope, and a seeded
  policy replays the same schedule;
* retry — fewer transient wire faults than ``max_retries`` always
  converges to the exact fault-free report, with the retry bookkeeping
  (attempt count, backoff schedule) matching the policy;
* transport — any record stream, chunked into batch frames of any
  sizes, gets byte-for-byte the verdict from an inline service that a
  local ``replay_batches`` of the same batches gives, and a row the
  engine cannot emit fails the served job with the message a local
  ``repro replay`` of it prints.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cudac import compile_cuda
from repro.errors import ReproError
from repro.faults import NULL_FAULTS, FaultInjector, FaultPlan, FaultSpec, sites
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.columnar import ColumnarBatch
from repro.events import LogRecord, RecordKind
from repro.runtime.replay import (
    load_capture_path_batches,
    replay,
    replay_batches,
    save_capture_binary,
    write_binary_batch,
    write_binary_header,
)
from repro.service import (
    BackoffPolicy,
    FrameDecoder,
    ProtocolError,
    RaceService,
    ServiceJobError,
    ServiceThread,
    encode_frame,
    reports_to_payload,
    submit_batches,
    submit_capture,
)
from repro.trace.operations import Scope, Space

from test_columnar import _DETECT_LAYOUT, memory_streams

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=10,
)

_messages = st.fixed_dictionaries(
    {"verb": st.text(min_size=1, max_size=12)},
    optional={"job_id": st.text(max_size=12), "payload": _json_values},
)


def _chunked(data, cuts):
    points = sorted({min(cut, len(data)) for cut in cuts})
    pieces = []
    start = 0
    for point in points:
        pieces.append(data[start:point])
        start = point
    pieces.append(data[start:])
    return pieces


# ----------------------------------------------------------------------
# Framing properties
# ----------------------------------------------------------------------
class TestFramingProperties:
    @given(messages=st.lists(_messages, min_size=1, max_size=5),
           cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=8))
    def test_round_trip_survives_arbitrary_chunking(self, messages, cuts):
        stream = b"".join(encode_frame(message) for message in messages)
        decoder = FrameDecoder()
        seen = []
        for piece in _chunked(stream, cuts):
            seen.extend(decoder.feed(piece))
        assert seen == messages

    @given(messages=st.lists(_messages, min_size=1, max_size=3),
           position=st.integers(min_value=0, max_value=4095),
           xor=st.integers(min_value=1, max_value=255))
    def test_mutation_never_raises_anything_but_protocol_error(
            self, messages, position, xor):
        stream = bytearray(
            b"".join(encode_frame(message) for message in messages))
        stream[position % len(stream)] ^= xor
        decoder = FrameDecoder()
        try:
            decoded = decoder.feed(bytes(stream))
        except ProtocolError:
            return
        # A mutation may still decode (e.g. it landed inside a string
        # literal); what it must never do is crash with anything else.
        assert isinstance(decoded, list)
        for message in decoded:
            assert isinstance(message, dict)
            assert isinstance(message.get("verb"), str)

    @given(messages=st.lists(_messages, min_size=1, max_size=3),
           keep=st.integers(min_value=0, max_value=4095))
    def test_truncation_yields_a_clean_prefix(self, messages, keep):
        stream = b"".join(encode_frame(message) for message in messages)
        decoder = FrameDecoder()
        decoded = decoder.feed(stream[: keep % (len(stream) + 1)])
        assert decoded == messages[: len(decoded)]


# ----------------------------------------------------------------------
# Backoff properties
# ----------------------------------------------------------------------
_policies = st.builds(
    BackoffPolicy,
    base=st.floats(min_value=0.001, max_value=1.0),
    factor=st.floats(min_value=1.0, max_value=4.0),
    cap=st.floats(min_value=1.0, max_value=10.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestBackoffProperties:
    @given(policy=_policies)
    def test_ideal_delays_are_monotone_and_capped(self, policy):
        delays = [policy.ideal(attempt) for attempt in range(20)]
        assert all(later >= earlier
                   for earlier, later in zip(delays, delays[1:]))
        assert all(delay <= policy.cap for delay in delays)

    @given(policy=_policies, attempts=st.integers(min_value=1, max_value=12))
    def test_realized_delay_stays_in_jitter_envelope(self, policy, attempts):
        schedule = policy.schedule(attempts)
        for attempt, delay in enumerate(schedule):
            ideal = policy.ideal(attempt)
            assert ideal <= delay <= ideal * (1.0 + policy.jitter) + 1e-9

    @given(policy=_policies, attempts=st.integers(min_value=1, max_value=8))
    def test_seeded_schedule_is_reproducible(self, policy, attempts):
        assert policy.schedule(attempts) == policy.schedule(attempts)

    @given(base=st.floats(max_value=0.0, allow_nan=False),
           jitter=st.floats(min_value=0.0, max_value=1.0))
    def test_invalid_policies_are_rejected(self, base, jitter):
        with pytest.raises(ReproError):
            BackoffPolicy(base=base, jitter=jitter)


# ----------------------------------------------------------------------
# Retry convergence property (against a live service)
# ----------------------------------------------------------------------
RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
    data[1] = 7;
}
"""


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("retry")
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    data = device.alloc(1024)
    sink = ListSink()
    device.launch(module, module.kernels[0].name, grid=2, block=32,
                  warp_size=8, params={"data": data}, sink=sink,
                  instrumented=True)
    layout = LaunchConfig.of(2, 32, 8).layout()
    path = root / "capture.bcap"
    with open(path, "wb") as stream:
        save_capture_binary(stream, layout, sink.records, kernel="k",
                            batch_records=4)
    expected = reports_to_payload(replay(layout, sink.records))
    thread = ServiceThread(
        RaceService(socket_path=str(root / "svc.sock"), workers=0)).start()
    try:
        yield thread.service.socket_path, str(path), expected
    finally:
        thread.stop()


class TestRetryConvergence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(transients=st.integers(min_value=0, max_value=3),
           kind=st.sampled_from([sites.CONNECTION_RESET,
                                 sites.TRUNCATE_FRAME]),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_fewer_transients_than_retries_converges_exactly(
            self, live_service, transients, kind, seed):
        socket_path, path, expected = live_service
        if transients:
            plan = FaultPlan(specs=(FaultSpec(
                site=sites.CLIENT_SEND, kind=kind, nth=1,
                times=transients),), seed=seed)
            faults = FaultInjector(plan)
        else:
            faults = NULL_FAULTS
        policy = BackoffPolicy(base=0.001, cap=0.01, jitter=0.5, seed=seed)
        result = submit_capture(path, socket_path=socket_path,
                                max_retries=3, backoff=policy,
                                faults=faults, sleep=lambda _delay: None)
        assert reports_to_payload(result.reports) == expected
        assert not result.degraded
        assert result.attempts == transients + 1
        assert len(result.backoff_schedule) == transients
        assert len(result.transient_failures) == transients
        rng = random.Random(policy.seed)
        for attempt, delay in enumerate(result.backoff_schedule):
            assert delay == policy.delay(attempt, rng)


# ----------------------------------------------------------------------
# The one transport, held to the local path
# ----------------------------------------------------------------------
def _warp_tids(warp):
    return range(4 * warp, 4 * warp + 4)  # _DETECT_LAYOUT: 4 warps of 4


@st.composite
def record_streams(draw):
    """``memory_streams`` rows with synchronization, barrier and
    branch-closing rows spliced in behind the divergence prefix — every
    lane inside its row's warp, every barrier tid inside its block, as
    the engine emits them."""
    records = draw(memory_streams())
    diverged = [r.warp for r in records if r.kind is RecordKind.BRANCH_IF]
    extras = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        warp = draw(st.integers(min_value=0, max_value=3))
        tids = draw(st.sets(st.sampled_from(_warp_tids(warp)), min_size=1))
        extras.append(LogRecord(
            kind=draw(st.sampled_from([RecordKind.ACQUIRE, RecordKind.RELEASE,
                                       RecordKind.ACQREL])),
            warp=warp, active=frozenset(tids),
            addrs={tid: (Space.GLOBAL,
                         4 * draw(st.integers(min_value=0, max_value=3)))
                   for tid in tids},
            scope=draw(st.sampled_from([Scope.BLOCK, Scope.GLOBAL])), pc=20))
    for block in draw(st.lists(st.sampled_from([0, 1]), max_size=2)):
        arrived = draw(st.sets(st.sampled_from(range(8 * block, 8 * block + 8)),
                               min_size=1))  # a partial set is a divergence
        extras.append(LogRecord(kind=RecordKind.BARRIER, warp=block,
                                active=frozenset(arrived), pc=30))
    for extra in extras:
        records.insert(draw(st.integers(min_value=len(diverged),
                                        max_value=len(records))), extra)
    for warp in diverged:
        if draw(st.booleans()):
            records.insert(
                draw(st.integers(min_value=len(diverged),
                                 max_value=len(records))),
                LogRecord(kind=RecordKind.BRANCH_ELSE, warp=warp,
                          active=frozenset(_warp_tids(warp)), pc=1))
            records.append(LogRecord(kind=RecordKind.BRANCH_FI, warp=warp,
                                     active=frozenset(_warp_tids(warp)), pc=2))
    return records


class TestTransportParity:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=record_streams(),
           sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                          max_size=4))
    def test_inline_service_matches_local_replay_at_any_framing(
            self, live_service, records, sizes):
        socket_path, _path, _expected = live_service
        batches, start = [], 0
        while start < len(records):
            size = sizes[len(batches) % len(sizes)]
            batches.append(ColumnarBatch.from_records(
                records[start:start + size]))
            start += size
        local = replay_batches(_DETECT_LAYOUT, batches)
        served = submit_batches(_DETECT_LAYOUT, "k", batches,
                                socket_path=socket_path)
        assert not served.degraded
        assert served.records_processed == len(records)
        assert served.stats["batches_in"] == len(batches)
        assert json.dumps(reports_to_payload(served.reports)) == \
            json.dumps(reports_to_payload(local))

    def test_a_hostile_row_fails_local_and_served_with_one_message(
            self, live_service, tmp_path):
        # A branch on a warp the launch does not have: the layout check
        # runs where a capture is loaded and where a shard decodes a
        # wire batch, and says the same thing in both places.
        socket_path, _path, _expected = live_service
        batch = ColumnarBatch.from_records([LogRecord(
            kind=RecordKind.BRANCH_IF, warp=99, active=frozenset({0, 1}),
            then_mask=frozenset({0}), pc=3)])
        capture = tmp_path / "hostile.bcap"
        with open(capture, "wb") as stream:
            write_binary_header(stream, _DETECT_LAYOUT, "k")
            write_binary_batch(stream, batch)
        with pytest.raises(ReproError) as local:
            load_capture_path_batches(str(capture))
        with pytest.raises(ServiceJobError) as served:
            submit_batches(_DETECT_LAYOUT, "k", [batch],
                           socket_path=socket_path)
        assert str(local.value) == str(served.value) == (
            "if row (warp 99, pc 3): warp 99 is not one of the launch's 4")
