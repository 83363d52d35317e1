"""repro.obs v2: distributed tracing, hot-path profiler, flight recorder.

The service-level tests here are the acceptance checks for the
cross-process observability layer: a traced SWEEP against a two-shard
service must merge into one valid Chrome trace with spans from the
client, the server, and every shard; fan-out children must link to
their parent; and a chaos-degraded job must carry a renderable flight
dump in its payload.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cudac import compile_cuda
from repro.faults import FaultPlan, FaultSpec, sites
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.obs import (
    NULL_PROFILER,
    NULL_SPANS,
    FlightRecorder,
    MetricsRegistry,
    Profiler,
    SpanBuffer,
    TraceContext,
    WireSpan,
    lint_metric_names,
    make_observability,
    merge_flight_dumps,
    merge_spans,
    parse_exposition,
    render_flight,
    root_context,
    validate_chrome_trace,
)
from repro.runtime import BarracudaSession
from repro.runtime.replay import save_capture
from repro.service import (
    RaceService,
    ServiceClient,
    ServiceThread,
    protocol,
    reports_to_payload,
)
from repro.service.client import BackoffPolicy, submit_capture

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
    data[1] = 7;
}
"""

CLEAN = """
__global__ void clean(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid;
}
"""

ENDPOINTS = ("unix", "tcp")


class FakeClock:
    def __init__(self, seconds=0.0):
        self.seconds = seconds

    def __call__(self):
        return self.seconds

    def tick(self, seconds):
        self.seconds += seconds


def _capture_file(tmp_path, name="cap.jsonl", grid=2, block=32, warp_size=8):
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    data = device.alloc(256 * 4)
    sink = ListSink()
    device.launch(module, "racy", grid=grid, block=block,
                  warp_size=warp_size, params={"data": data}, sink=sink,
                  instrumented=True)
    layout = LaunchConfig.of(grid, block, warp_size).layout()
    path = tmp_path / name
    with open(path, "w") as stream:
        save_capture(stream, layout, sink.records, kernel="racy")
    return str(path), layout, sink.records


def _start(endpoint, tmp_path, **kwargs):
    kwargs.setdefault("job_timeout", 20.0)
    if endpoint == "unix":
        service = RaceService(socket_path=str(tmp_path / "obs.sock"),
                              **kwargs)
    else:
        service = RaceService(port=0, **kwargs)
    return ServiceThread(service).start()


def _endpoint_kwargs(thread):
    service = thread.service
    if service.socket_path is not None:
        return {"socket_path": service.socket_path}
    return {"port": service.bound_port}


def _submit(thread, path, trace=NULL_SPANS, **kwargs):
    return submit_capture(
        path,
        backoff=BackoffPolicy(base=0.001, cap=0.01),
        sleep=lambda _delay: None,
        trace=trace,
        **_endpoint_kwargs(thread),
        **kwargs,
    )


def _sweep_spec():
    from repro.predict import LaunchSpec

    return LaunchSpec(
        source=RACY, kernel="racy", is_ptx=False, grid=2, block=32,
        warp_size=8, buffers=(("data", 64, ()),), scalars=(),
        arch="titanx", max_steps=400_000,
    ).to_payload()


# ----------------------------------------------------------------------
# TraceContext and WireSpan wire format
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_round_trip(self):
        ctx = root_context()
        assert TraceContext.from_payload(ctx.to_payload()) == ctx

    def test_absent_payload_is_none(self):
        assert TraceContext.from_payload(None) is None
        assert TraceContext.from_payload({}) is None

    def test_child_reparents_only(self):
        ctx = root_context()
        child = ctx.child("abcd")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == "abcd"
        assert child.origin_wall == ctx.origin_wall

    @pytest.mark.parametrize("payload", [
        "not-a-dict",
        {"trace_id": 7},
        {"trace_id": ""},
        {"trace_id": "ok", "parent_span_id": 5},
        {"trace_id": "ok", "origin_wall": "soon"},
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ValueError):
            TraceContext.from_payload(payload)


_IDS = st.text(st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=12)


class TestWireSpan:
    @given(
        name=_IDS, span_id=_IDS, trace_id=_IDS, process=_IDS,
        parent=st.one_of(st.just(""), _IDS),
        track=_IDS,
        start=st.floats(min_value=0, max_value=2e9, allow_nan=False),
        duration=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        kind=st.sampled_from(["span", "instant"]),
        args=st.dictionaries(_IDS, st.integers(-10 ** 9, 10 ** 9),
                             max_size=4),
        links=st.lists(_IDS, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_payload_round_trips_through_json(self, name, span_id, trace_id,
                                              process, parent, track, start,
                                              duration, kind, args, links):
        span = WireSpan(name=name, span_id=span_id, trace_id=trace_id,
                        process=process, parent_id=parent, track=track,
                        start_wall=start, duration=duration, kind=kind,
                        args=args, links=tuple(links))
        wire = json.loads(json.dumps(span.to_payload()))
        assert WireSpan.from_payload(wire) == span

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(v=99),
        lambda p: p.update(name=""),
        lambda p: p.update(kind="mystery"),
        lambda p: p.update(dur=-1.0),
        lambda p: p.update(links=[1, 2]),
        lambda p: p.update(args="nope"),
    ])
    def test_invalid_payloads_raise(self, mutate):
        payload = WireSpan(name="n", span_id="s", trace_id="t",
                           process="p").to_payload()
        mutate(payload)
        with pytest.raises(ValueError):
            WireSpan.from_payload(payload)


# ----------------------------------------------------------------------
# SpanBuffer
# ----------------------------------------------------------------------
class TestSpanBuffer:
    def _buffer(self, **kwargs):
        perf, wall = FakeClock(5.0), FakeClock(100.0)
        buf = SpanBuffer("tester", clock=perf, wall=wall, **kwargs)
        return buf, perf

    def test_wall_projection_uses_monotonic_clock(self):
        buf, perf = self._buffer()
        perf.tick(2.5)
        assert buf.now_wall() == pytest.approx(102.5)

    def test_nested_spans_parent_to_enclosing(self):
        buf, perf = self._buffer()
        with buf.span("outer") as outer_id:
            perf.tick(1.0)
            with buf.span("inner"):
                perf.tick(1.0)
        by_name = {p["name"]: p for p in buf.to_payloads()}
        assert by_name["inner"]["parent"] == outer_id
        assert "parent" not in by_name["outer"]
        assert by_name["outer"]["dur"] == pytest.approx(2.0)
        assert by_name["inner"]["start"] == pytest.approx(101.0)

    def test_context_parent_seeds_top_level_spans(self):
        ctx = TraceContext(trace_id="t1", parent_span_id="remote")
        buf = SpanBuffer("tester", context=ctx)
        with buf.span("work"):
            pass
        buf.instant("blip")
        for payload in buf.to_payloads():
            assert payload["parent"] == "remote"
            assert payload["trace"] == "t1"

    def test_over_limit_spans_drop_and_count(self):
        buf, _perf = self._buffer(limit=2)
        for index in range(5):
            buf.instant(f"e{index}")
        assert len(buf) == 2
        assert buf.dropped == 3

    def test_absorb_keeps_only_objects(self):
        buf, _perf = self._buffer()
        with buf.span("own"):
            pass
        buf.absorb([{"v": 1}, "junk", None])
        collected = buf.collected_payloads()
        assert len(collected) == 2
        assert collected[0]["name"] == "own"

    def test_null_buffer_is_inert(self):
        with NULL_SPANS.span("anything") as span_id:
            assert span_id == ""
        NULL_SPANS.instant("x")
        assert NULL_SPANS.to_payloads() == []
        assert not NULL_SPANS.enabled


# ----------------------------------------------------------------------
# merge_spans
# ----------------------------------------------------------------------
def _span_payload(name, span_id, process, start, dur=1.0, parent="",
                  links=(), kind="span"):
    return WireSpan(name=name, span_id=span_id, trace_id="t",
                    process=process, parent_id=parent, start_wall=start,
                    duration=dur, links=tuple(links),
                    kind=kind).to_payload()


class TestMergeSpans:
    def test_children_clamped_to_parent_start(self):
        # Cross-process clock skew: the shard span claims to start
        # before the server span that caused it.
        payloads = [
            _span_payload("server-open", "p1", "server", 10.0, dur=2.0),
            _span_payload("shard-batch", "c1", "shard-0", 9.9985,
                          parent="p1"),
        ]
        trace = merge_spans(payloads)
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["shard-batch"]["ts"] >= by_name["server-open"]["ts"]

    def test_links_become_flow_pairs(self):
        payloads = [
            _span_payload("sweep", "parent", "server", 1.0, dur=5.0),
            _span_payload("sweep-run", "child", "shard-0", 2.0,
                          parent="parent", links=("parent",)),
        ]
        events = merge_spans(payloads)["traceEvents"]
        flows = [e for e in events if e.get("cat") == "link"]
        assert {e["ph"] for e in flows} == {"s", "f"}
        assert all(e["name"] == "fan-out" for e in flows)
        assert flows[0]["id"] == flows[1]["id"]

    def test_process_metadata_is_ordered_and_deterministic(self):
        payloads = [
            _span_payload("c", "3", "shard-1", 3.0),
            _span_payload("a", "1", "client", 1.0),
            _span_payload("b", "2", "server", 2.0),
        ]
        trace = merge_spans(payloads)
        names = [e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("name") == "process_name"]
        assert names == ["client", "server", "shard-1"]
        assert merge_spans(payloads) == trace

    def test_invalid_payloads_are_skipped_not_fatal(self):
        payloads = [
            _span_payload("ok", "1", "client", 1.0),
            {"v": 99, "name": "wrong-version"},
            "garbage",
            {},
        ]
        trace = merge_spans(payloads)
        assert trace["otherData"]["skipped_spans"] == 3
        assert [e["name"] for e in trace["traceEvents"]
                if e["ph"] == "X"] == ["ok"]

    def test_merged_trace_validates(self):
        payloads = [
            _span_payload("a", "1", "client", 1.0),
            _span_payload("b", "2", "server", 2.0, parent="1",
                          links=("1",)),
            _span_payload("blip", "3", "server", 2.5, kind="instant"),
        ]
        assert validate_chrome_trace(merge_spans(payloads),
                                     min_phases=2) == ["a", "b"]


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_wrapped_closures_bill_exclusive_time(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        inner = profiler.wrap_op(
            lambda warp, entry: clock.tick(1.0), "inner", 2)
        def outer_body(warp, entry):
            inner(warp, entry)
            clock.tick(2.0)
        outer = profiler.wrap_op(outer_body, "outer", 1)
        outer(None, None)
        rows = {(opcode, line): (count, seconds)
                for opcode, line, count, seconds in profiler.rows()}
        assert rows[("inner", 2)] == (1, pytest.approx(1.0))
        assert rows[("outer", 1)] == (1, pytest.approx(2.0))

    def test_rows_are_count_ordered_with_stable_ties(self):
        profiler = Profiler(clock=FakeClock())
        profiler.account("st", 9, count=2)
        profiler.account("ld", 9, count=2)
        profiler.account("add", 3, count=5)
        assert [(r[0], r[1]) for r in profiler.rows()] == [
            ("add", 3), ("ld", 9), ("st", 9)]

    def test_text_output_is_deterministic_without_time(self):
        def render(seconds):
            profiler = Profiler(clock=FakeClock())
            profiler.account("st", 9, count=3, seconds=seconds)
            return profiler.render_text()
        assert render(0.125) == render(99.0)
        assert "excl-s" not in render(1.0)

    def test_collapsed_stack_format(self):
        profiler = Profiler(clock=FakeClock())
        profiler.account("st", 23, count=7)
        line = profiler.render_collapsed(
            source_lines={23: "st.global.u32 [%rd4]; x"})
        assert line == "kernel;L23 st.global.u32 [%rd4], x;st 7"

    def test_null_profiler_never_wraps(self):
        def op(warp, entry):
            return 42
        assert NULL_PROFILER.wrap_op(op, "st", 1) is op
        NULL_PROFILER.account("st", 1)
        assert NULL_PROFILER.total_events == 0

    def _profiled_launch(self):
        obs = make_observability(profile=True)
        session = BarracudaSession(obs=obs)
        session.register_module(compile_cuda(RACY))
        addr = session.device.alloc(64 * 4)
        session.launch("racy", grid=2, block=32, params={"data": addr})
        return obs.profiler

    def test_decoded_engine_feeds_profiler(self):
        profiler = self._profiled_launch()
        assert profiler.total_events > 0
        opcodes = {opcode for opcode, _line, _c, _s in profiler.rows()}
        assert "st" in opcodes  # the racy store is on the profile

    def test_repeated_runs_render_identically(self):
        first = self._profiled_launch().render_text()
        second = self._profiled_launch().render_text()
        assert first == second


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_drops_oldest_and_counts(self):
        wall = FakeClock(10.0)
        flight = FlightRecorder("p", capacity=3, wall=wall)
        for index in range(5):
            flight.record("event", index=index)
            wall.tick(1.0)
        assert len(flight) == 3
        assert flight.dropped == 2
        dump = flight.dump()
        assert [e["seq"] for e in dump["events"]] == [3, 4, 5]
        assert dump["process"] == "p"
        assert dump["dropped"] == 2

    def test_merge_skips_invalid_dumps(self):
        good = FlightRecorder("server").dump()
        merged = merge_flight_dumps(
            [good, None, "junk", {"version": 99, "process": "x",
                                  "events": []}])
        assert [p["process"] for p in merged["processes"]] == ["server"]

    def test_render_orders_across_processes(self):
        a = FlightRecorder("server", wall=FakeClock(100.0))
        b = FlightRecorder("shard-0", wall=FakeClock(100.5))
        a.record("job-open", job="j1")
        b.record("fault-injected", fault="crash")
        text = render_flight(merge_flight_dumps([a.dump(), b.dump()]))
        lines = text.splitlines()
        assert "2 events across 2 process(es)" in lines[0]
        assert "job-open" in lines[1] and "job=j1" in lines[1]
        assert "fault-injected" in lines[2] and "+   0.5000s" in lines[2]

    def test_reserved_field_names_are_prefixed_not_dropped(self):
        flight = FlightRecorder("p")
        flight.record("fault-injected", kind="crash", seq=9, site="batch")
        event = flight.dump()["events"][0]
        assert event["kind"] == "fault-injected"
        assert event["field_kind"] == "crash"
        assert event["field_seq"] == 9
        assert event["site"] == "batch"
        assert event["seq"] == 1

    def test_render_accepts_single_dump_and_empty(self):
        flight = FlightRecorder("solo")
        flight.record("boot")
        assert "solo" in render_flight(flight.dump())
        assert render_flight({"version": 1, "processes": []}) == \
            "flight recorder: no events"


# ----------------------------------------------------------------------
# Metrics merging and the naming lint
# ----------------------------------------------------------------------
class TestMetricsMerge:
    def test_counter_merge_adds_with_shard_label(self):
        worker = MetricsRegistry()
        worker.counter("repro_sweep_schedules_total", "runs").inc(5)
        server = MetricsRegistry()
        server.merge_snapshot(worker.snapshot(), {"shard": "0"})
        server.merge_snapshot(worker.snapshot(), {"shard": "1"})
        samples = parse_exposition(server.render_prometheus())
        values = {labels["shard"]: value
                  for labels, value in samples["repro_sweep_schedules_total"]}
        assert values == {"0": 5.0, "1": 5.0}

    def test_lint_accepts_clean_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "jobs").inc()
        registry.gauge("repro_pending", "pending").set(3)
        assert lint_metric_names(registry.render_prometheus()) == []

    def test_lint_catches_violations(self):
        registry = MetricsRegistry()
        registry.counter("repro_records", "no suffix").inc()
        registry.gauge("repro_busy_total", "gauge with suffix").set(1)
        registry.counter("other_things_total", "wrong prefix").inc()
        problems = lint_metric_names(registry.render_prometheus())
        assert len(problems) == 3
        assert any("without '_total'" in p for p in problems)
        assert any("'_total' suffix on a gauge" in p for p in problems)
        assert any("missing 'repro_' prefix" in p for p in problems)


# ----------------------------------------------------------------------
# The served pipeline: traced submit/sweep, METRICS, DUMP, degraded
# ----------------------------------------------------------------------
def _merged_events(buffer):
    trace = merge_spans(buffer.collected_payloads())
    validate_chrome_trace(trace, min_phases=1)
    return trace["traceEvents"]


def _assert_parent_monotone(events):
    """Every child span starts no earlier than its (present) parent."""
    starts = {e["args"]["span_id"]: e["ts"]
              for e in events if e["ph"] in ("X", "i")}
    checked = 0
    for event in events:
        if event["ph"] not in ("X", "i"):
            continue
        parent = event["args"].get("parent_id")
        if parent in starts:
            assert event["ts"] >= starts[parent]
            checked += 1
    assert checked > 0  # parentage actually crossed the wire


class TestServedTracing:
    @pytest.mark.parametrize("endpoint", ENDPOINTS)
    def test_traced_sweep_spans_every_shard(self, endpoint, tmp_path):
        thread = _start(endpoint, tmp_path, workers=2)
        try:
            buffer = SpanBuffer("client")
            with ServiceClient(timeout=120.0,
                               **_endpoint_kwargs(thread)) as client:
                client.sweep(_sweep_spec(), schedules=4, seed=7,
                             trace=buffer)
        finally:
            thread.stop()

        events = _merged_events(buffer)
        processes = {e["args"]["name"] for e in events
                     if e.get("name") == "process_name"}
        assert {"client", "server", "shard-0", "shard-1"} <= processes
        _assert_parent_monotone(events)

        # The client request parents the server sweep span, which in
        # turn parents (and is linked by) every shard's sweep-run span.
        by_id = {e["args"]["span_id"]: e for e in events
                 if e["ph"] in ("X", "i")}
        request = next(e for e in events if e.get("name") == "sweep-request")
        sweep = next(e for e in events if e.get("name") == "sweep")
        assert sweep["args"]["parent_id"] == request["args"]["span_id"]
        runs = [e for e in events if e.get("name") == "sweep-run"]
        assert len(runs) == 4
        assert {r["args"]["parent_id"] for r in runs} == \
            {sweep["args"]["span_id"]}
        flows = [e for e in events if e.get("cat") == "link"]
        assert len(flows) == 2 * len(runs)
        assert by_id  # spans carry their ids through the merge

    @pytest.mark.parametrize("endpoint", ENDPOINTS)
    def test_traced_submit_report_matches_untraced(self, endpoint, tmp_path):
        path, _layout, _records = _capture_file(tmp_path)
        thread = _start(endpoint, tmp_path, workers=1)
        try:
            untraced = _submit(thread, path)
            buffer = SpanBuffer("client")
            traced = _submit(thread, path, trace=buffer)
        finally:
            thread.stop()

        # Tracing must never change the report.
        assert reports_to_payload(traced.reports) == \
            reports_to_payload(untraced.reports)
        assert untraced.spans == []
        assert traced.spans  # piggybacked server+shard spans

        events = _merged_events(buffer)
        processes = {e["args"]["name"] for e in events
                     if e.get("name") == "process_name"}
        assert {"client", "server", "shard-0"} <= processes
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"submit", "server-open", "server-close",
                "replay"} <= names
        _assert_parent_monotone(events)

    def test_malformed_trace_context_fails_the_request_only(self, tmp_path):
        path, _layout, _records = _capture_file(tmp_path)
        header = open(path).readline()
        thread = _start("unix", tmp_path, workers=0)
        try:
            with ServiceClient(**_endpoint_kwargs(thread)) as client:
                for frame in (
                        protocol.open_frame(header, trace={"trace_id": 7}),
                        protocol.job_frame("sweep", _sweep_spec(),
                                           {"schedules": 1, "seed": 0},
                                           trace={"parent_span_id": "x"})):
                    reply = client._request(frame)
                    assert reply["verb"] == protocol.ERROR
                    assert reply["message"].startswith("bad trace context")
                assert client.status("health")["health"]["jobs_open"] == 0
        finally:
            thread.stop()

    def test_degraded_job_carries_flight_dump(self, tmp_path):
        # nth=1 re-fires on every requeue, exhausting the budget: the
        # degraded payload must carry the merged flight recording with
        # the crash story, and the client trace must show the fault.
        path, _layout, records = _capture_file(tmp_path)
        plan = FaultPlan(specs=(FaultSpec(site=sites.WORKER_BATCH,
                                          kind=sites.CRASH, nth=1),))
        thread = _start("unix", tmp_path, workers=0, max_requeues=1,
                        fault_plan=plan)
        try:
            buffer = SpanBuffer("client")
            result = _submit(thread, path, trace=buffer)
        finally:
            thread.stop()

        assert result.degraded
        assert result.flight is not None
        assert result.flight["processes"]
        kinds = {event["kind"] for proc in result.flight["processes"]
                 for event in proc["events"]}
        assert "shard-crash" in kinds
        assert "job-degraded" in kinds
        text = render_flight(result.flight)
        assert "job-degraded" in text and "shard-crash" in text

        instants = {e["name"] for e in _merged_events(buffer)
                    if e["ph"] == "i"}
        assert "shard-crash" in instants
        assert "job-degraded" in instants

    @pytest.mark.parametrize("endpoint", ENDPOINTS)
    def test_metrics_verb_aggregates_shard_registries(self, endpoint,
                                                      tmp_path):
        path, _layout, records = _capture_file(tmp_path)
        thread = _start(endpoint, tmp_path, workers=2)
        try:
            _submit(thread, path)
            with ServiceClient(timeout=120.0,
                               **_endpoint_kwargs(thread)) as client:
                client.sweep(_sweep_spec(), schedules=4, seed=7)
                text = client.status("metrics")["metrics"]["text"]
        finally:
            thread.stop()

        samples = parse_exposition(text)
        # A record batch is counted once, by the server, per shard.
        worker_records = samples["repro_service_worker_records_total"]
        assert {labels["shard"] for labels, _value in worker_records} == \
            {"0", "1"}
        assert sum(value for _labels, value in worker_records) == \
            len(records)
        assert "repro_service_worker_batches_total" in samples
        # What the sweep's stages published on each shard is merged in
        # under that shard's label: every schedule's launch, once.
        assert sum(value for labels, value
                   in samples["repro_records_logged_total"]
                   if labels.get("shard")) > 0
        assert [value for labels, value
                in samples["repro_sweep_schedules_total"]] == [4]
        # The renamed busy-time series is a counter now.
        assert "# TYPE repro_service_worker_busy_seconds_total counter" \
            in text
        assert "repro_service_worker_busy_seconds " not in text
        # And the whole service exposition passes the naming lint.
        assert lint_metric_names(text) == []

    def test_dump_verb_returns_merged_flight(self, tmp_path):
        path, _layout, _records = _capture_file(tmp_path)
        thread = _start("unix", tmp_path, workers=1)
        try:
            _submit(thread, path)
            with ServiceClient(**_endpoint_kwargs(thread)) as client:
                dump = client.status("flight")["flight"]
        finally:
            thread.stop()

        processes = {p["process"] for p in dump["processes"]}
        assert "server" in processes
        assert "shard-0" in processes
        server = next(p for p in dump["processes"]
                      if p["process"] == "server")
        kinds = {e["kind"] for e in server["events"]}
        assert {"job-open", "job-close"} <= kinds
        assert "flight recorder:" in render_flight(dump)


# ----------------------------------------------------------------------
# Local = remote: --trace is one recorder, wherever the analysis ran
# ----------------------------------------------------------------------
def _trace_spans(path):
    """``{span name: {process names}}`` of a written trace file."""
    trace = json.loads(open(path).read())
    validate_chrome_trace(trace, min_phases=1)
    events = trace["traceEvents"]
    process = {e["pid"]: e["args"]["name"] for e in events
               if e["name"] == "process_name"}
    spans = {}
    for event in events:
        if event["ph"] == "X":
            spans.setdefault(event["name"], set()).add(process[event["pid"]])
    return spans, trace["otherData"]


@pytest.mark.parametrize("workers", [0, 2])
class TestLocalRemoteParity:
    LAUNCH = ["--grid", "2", "--buffer", "data:64", "--warp-size", "8"]

    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def _kernel(self, tmp_path):
        path = tmp_path / "racy.cu"
        path.write_text(RACY)
        return str(path)

    def test_sweep_trace_carries_the_local_analysis_spans(
            self, workers, tmp_path, capsys):
        argv = ["sweep", self._kernel(tmp_path), *self.LAUNCH,
                "--schedules", "3", "--format", "json"]
        local, remote = tmp_path / "local.json", tmp_path / "remote.json"
        self._run(argv + ["--trace", str(local)])
        local_report = capsys.readouterr().out
        thread = _start("unix", tmp_path, workers=workers)
        try:
            self._run(argv + ["--trace", str(remote), "--socket",
                              thread.service.socket_path])
        finally:
            thread.stop()
        assert capsys.readouterr().out == local_report

        local_spans, _other = _trace_spans(local)
        remote_spans, other = _trace_spans(remote)
        analysis = {"cuda-frontend", "ptx-parse", "instrument", "execute",
                    "warp-step", "queue-drain", "sweep-run", "sweep-finalize",
                    "sweep-base", "sweep-predict", "sweep-confirm"}
        assert analysis <= set(local_spans)
        assert analysis <= set(remote_spans)
        assert set(local_spans) - set(remote_spans) == set()
        # ... recorded where the analysis ran, and every process in the
        # trace says how many spans its bounded buffers dropped.
        shards = {f"shard-{i}" for i in range(max(workers, 1))}
        assert remote_spans["execute"] == shards
        assert remote_spans["sweep-base"] == {"shard-0"}
        assert set(other["dropped_spans"]) == {"client", "server"} | shards

    def test_submit_trace_carries_the_local_replay_span(
            self, workers, tmp_path):
        capture = str(tmp_path / "run.capture")
        self._run(["check", self._kernel(tmp_path), *self.LAUNCH,
                   "--capture", capture])
        local, remote = tmp_path / "local.json", tmp_path / "remote.json"
        assert self._run(["replay", capture, "--trace", str(local)]) == 1
        thread = _start("unix", tmp_path, workers=workers)
        try:
            assert self._run(["replay", capture, "--trace", str(remote),
                              "--socket", thread.service.socket_path]) == 1
        finally:
            thread.stop()

        local_spans, _other = _trace_spans(local)
        remote_spans, _other = _trace_spans(remote)
        # The client reads the file either way; the detector pass is the
        # analysis, and it is the same span on whichever process ran it.
        assert local_spans["replay"] == {"client"}
        assert remote_spans["replay"] == {"shard-0"}

    def test_replay_on_a_service_prints_the_local_report(
            self, workers, tmp_path, capsys):
        # One command, one report: racy and clean, both capture formats,
        # with and without the same-value filter and the predictive tail —
        # stdout byte for byte.
        clean = tmp_path / "clean.cu"
        clean.write_text(CLEAN)
        captures = []
        for name, kernel in (("racy", self._kernel(tmp_path)),
                             ("clean", str(clean))):
            binary = str(tmp_path / f"{name}.capture")
            jsonl = str(tmp_path / f"{name}.jsonl")
            self._run(["check", kernel, *self.LAUNCH, "--capture", binary])
            assert self._run(["convert", binary, jsonl, "--to", "jsonl"]) == 0
            captures += [(name, binary), (name, jsonl)]
        capsys.readouterr()
        thread = _start("unix", tmp_path, workers=workers)
        try:
            for name, capture in captures:
                outputs = {}
                for flag in ("", "--no-filter-same-value", "--predict",
                             "--stats"):
                    argv = ["replay", capture, *flag.split()]
                    code = self._run(argv)
                    local = capsys.readouterr().out
                    assert code == (1 if name == "racy" else 0)
                    assert self._run(
                        argv + ["--socket", thread.service.socket_path]) == code
                    served = capsys.readouterr().out
                    # --stats appends the job's and the service's numbers
                    # to the same report and capture statistics.
                    assert served.startswith(local) if flag == "--stats" \
                        else served == local
                    outputs[flag] = local
                # The flag reached the service: it changes a racy report.
                assert (outputs["--no-filter-same-value"] != outputs[""]) \
                    == (name == "racy")
                assert "predicted" in outputs["--predict"]
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCli:
    def _kernel_file(self, tmp_path):
        path = tmp_path / "racy.cu"
        path.write_text(RACY)
        return str(path)

    def test_profile_is_deterministic_across_runs(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["profile", self._kernel_file(tmp_path),
                "--grid", "2", "--buffer", "data:64"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "hot paths:" in first

    def test_profile_collapsed_output(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["profile", self._kernel_file(tmp_path), "--grid", "2",
                     "--buffer", "data:64", "--format", "collapsed"]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        for line in out.strip().splitlines():
            frames, _space, weight = line.rpartition(" ")
            assert frames.startswith("kernel;")
            assert weight.isdigit()

    def test_capture_profile_reads_rows_where_they_lie(self, tmp_path,
                                                       capsys):
        # A capture is profiled one row range at a time over its batches;
        # every format prints one event per record, at its kind and pc.
        from repro.cli import main
        from repro.obs.profiler import Profiler
        from repro.runtime.replay import load_capture_path_batches

        capture = str(tmp_path / "run.bcap")
        assert main(["check", self._kernel_file(tmp_path), "--grid", "2",
                     "--warp-size", "8", "--buffer", "data:64",
                     "--capture", capture]) == 1
        _layout, _kernel, batches, _fmt = load_capture_path_batches(capture)
        expected = Profiler()
        for batch in batches:
            for record in batch.to_records():
                expected.account(record.kind.value, max(record.pc, 0))
        assert expected.total_events > 0
        capsys.readouterr()

        def untimed(profile):
            for site in profile["sites"]:
                site["exclusive_seconds"] = 0
            return profile

        assert main(["profile", capture]) == 0
        assert capsys.readouterr().out == expected.render_text() + "\n"
        assert main(["profile", capture, "--format", "collapsed"]) == 0
        assert (capsys.readouterr().out
                == expected.render_collapsed() + "\n")
        assert main(["profile", capture, "--format", "json"]) == 0
        assert (untimed(json.loads(capsys.readouterr().out))
                == untimed(expected.to_json()))

    def test_explain_flight_renders_dump(self, tmp_path, capsys):
        from repro.cli import main

        flight = FlightRecorder("server")
        flight.record("job-degraded", job="j1")
        dump_path = tmp_path / "flight.json"
        dump_path.write_text(json.dumps(merge_flight_dumps([flight.dump()])))
        assert main(["explain", "--flight", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert "job-degraded" in out and "job=j1" in out

    def test_explain_requires_source_or_flight(self, capsys):
        from repro.cli import main

        assert main(["explain"]) == 2
        assert "required" in capsys.readouterr().err
