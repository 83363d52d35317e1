"""The observability subsystem: tracing, metrics, race provenance."""

import json
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.reference import DetectorConfig
from repro.cudac import compile_cuda
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.obs import (
    NULL_METRICS,
    NULL_OBS,
    NULL_SPANS,
    ClockComparison,
    MetricsRegistry,
    NullMetricsRegistry,
    ProvenanceTracker,
    SpanBuffer,
    make_observability,
    merge_spans,
    parse_exposition,
    render_provenance,
    validate_chrome_trace,
    write_merged_trace,
)
from repro.runtime import LogQueue
from repro.runtime.replay import replay

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
}
"""


def _racy_capture(grid=2, block=32, warp_size=8):
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    data = device.alloc(256 * 4)
    sink = ListSink()
    device.launch(module, "racy", grid=grid, block=block,
                  warp_size=warp_size, params={"data": data}, sink=sink,
                  instrumented=True)
    return LaunchConfig.of(grid, block, warp_size).layout(), sink.records


# ----------------------------------------------------------------------
# Tracer: the one span recorder and the one exporter
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, seconds=0.0):
        self.seconds = seconds

    def __call__(self):
        return self.seconds

    def tick(self, seconds):
        self.seconds += seconds


def _recorder(**kwargs):
    clock = FakeClock(5.0)
    return SpanBuffer("tester", clock=clock, wall=FakeClock(100.0),
                      **kwargs), clock


def _complete_events(buffer):
    return [e for e in merge_spans(buffer.collected_payloads())["traceEvents"]
            if e["ph"] == "X"]


class TestTracer:
    def test_span_records_complete_event(self):
        tracer, clock = _recorder()
        with tracer.span("parse", source="k.cu"):
            clock.tick(0.002)
        spans = _complete_events(tracer)
        assert len(spans) == 1
        assert spans[0]["name"] == "parse"
        assert spans[0]["ts"] == 0.0
        assert spans[0]["dur"] == pytest.approx(2000.0)
        assert spans[0]["args"]["source"] == "k.cu"

    def test_tracks_get_metadata_events(self):
        tracer, _clock = _recorder()
        with tracer.span("a", track="warp-0"):
            pass
        with tracer.span("b", track="warp-1"):
            pass
        events = merge_spans(tracer.collected_payloads())["traceEvents"]
        meta = [(e["name"], e["args"]["name"])
                for e in events if e["ph"] == "M"]
        assert ("process_name", "tester") in meta
        assert ("thread_name", "warp-0") in meta
        assert ("thread_name", "warp-1") in meta
        warps = [e for e in events if e["ph"] == "X"]
        assert warps[0]["tid"] != warps[1]["tid"]
        assert warps[0]["pid"] == warps[1]["pid"]

    def test_nested_spans_both_recorded(self):
        tracer, _clock = _recorder()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {e["name"]: e["args"] for e in _complete_events(tracer)}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert "parent_id" not in by_name["outer"]

    def test_annotate_adds_arguments_known_at_the_end(self):
        tracer, _clock = _recorder()
        span = tracer.span("execute", kernel="k")
        with span:
            span.annotate(steps=64)
        assert _complete_events(tracer)[0]["args"]["steps"] == 64

    def test_write_and_validate(self, tmp_path):
        tracer, _clock = _recorder()
        with tracer.span("only-phase"):
            pass
        path = tmp_path / "t.json"
        write_merged_trace(str(path), tracer.collected_payloads())
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload, min_phases=1) == ["only-phase"]

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "pid": 1,
                                  "tid": 1, "ts": 0, "dur": -5}]})

    def test_validate_enforces_min_phases(self):
        tracer, _clock = _recorder()
        with tracer.span("a"):
            pass
        with pytest.raises(ValueError, match="expected at least 5"):
            validate_chrome_trace(merge_spans(tracer.collected_payloads()),
                                  min_phases=5)

    def test_null_tracer_is_inert(self):
        tracer = NULL_OBS.tracer
        assert tracer is NULL_SPANS and not tracer.enabled
        with tracer.span("ignored", track="warp-0", block=0) as span_id:
            assert span_id == ""
        # One shared no-op, not a fresh context manager per call: the
        # launch path calls span() with tracing off.
        assert tracer.span("a") is tracer.span("b", x=1)
        tracer.span("a").annotate(steps=1)
        tracer.instant("ignored")
        assert tracer.collected_payloads() == []
        assert merge_spans(tracer.collected_payloads())["traceEvents"] == []

    def test_bounded_recorder_keeps_the_enclosing_span(self):
        # A slot is taken when a span opens, so the stage span that
        # encloses a flood of leaves is the one that survives it.
        tracer, _clock = _recorder(limit=3)
        with tracer.span("stage"):
            for _ in range(5):
                with tracer.span("leaf"):
                    pass
        tracer.instant("late")
        names = [p["name"] for p in tracer.to_payloads()]
        assert names == ["leaf", "leaf", "stage", "spans-dropped"]
        assert tracer.dropped == 4 and len(tracer) == 3

    def test_dropped_counts_reach_the_merged_trace(self):
        shard, _clock = _recorder(limit=1)
        with shard.span("stage"):
            with shard.span("leaf"):
                pass
        client = SpanBuffer("client", limit=None)
        with client.span("request"):
            pass
        client.absorb(shard.to_payloads())
        client.absorb(shard.to_payloads())  # a second buffer, same process
        trace = merge_spans(client.collected_payloads())
        assert trace["otherData"]["dropped_spans"] == \
            {"client": 0, "tester": 2}
        validate_chrome_trace(trace, min_phases=2)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_per_label(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Events", ("kind",))
        counter.inc(kind="load")
        counter.inc(2, kind="store")
        assert counter.value(kind="load") == 1
        assert counter.value(kind="store") == 2
        assert counter.value(kind="atom") == 0
        with pytest.raises(ValueError):
            counter.inc(-1, kind="load")

    def test_gauge_sets_and_decrements(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.dec(3)
        assert gauge.value() == 7

    def test_registry_is_idempotent_but_type_strict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_exposition_round_trips_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Help text", ("k",)).inc(3, k='va"l')
        registry.gauge("b").set(2.5)
        parsed = parse_exposition(registry.render_prometheus())
        assert parsed["a_total"] == [({"k": 'va"l'}, 3.0)]
        assert parsed["b"] == [({}, 2.5)]

    def test_reset_forgets_every_instrument(self):
        # What a forked shard inherited from its parent is not its own.
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc(3)
        registry.gauge("repro_b").set(1)
        registry.reset()
        assert registry.render_prometheus() == ""
        assert registry.counter("repro_a_total").value() == 0

    @given(st.dictionaries(
        st.tuples(st.text(), st.text()),
        st.floats(allow_nan=False, allow_infinity=False),
        max_size=8))
    def test_parse_inverts_render_for_any_label_values(self, series):
        # Quotes, backslashes, newlines, braces, commas and carriage
        # returns in a label value all come back exactly as set.
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_g", "help", ("job", "shard"))
        for (job, shard), value in series.items():
            gauge.set(value, job=job, shard=shard)
        parsed = parse_exposition(registry.render_prometheus())
        assert {(labels["job"], labels["shard"]): value
                for labels, value in parsed.get("repro_g", [])} == series

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_exposition("# BOGUS comment kind")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A", ("k",)).inc(2, k="x")
        snap = registry.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["labels"] == ["k"]
        assert snap["a_total"]["values"] == {"x": 2}

    def test_null_registry_is_inert(self):
        assert not NULL_METRICS.enabled
        instrument = NULL_METRICS.counter("anything")
        instrument.inc(5)
        instrument.set(2)
        assert instrument.value() == 0
        assert NULL_METRICS.render_prometheus() == ""
        assert NULL_METRICS.snapshot() == {}
        assert isinstance(NULL_METRICS, NullMetricsRegistry)

    def test_observability_bundle_defaults_disabled(self):
        assert not NULL_OBS.enabled
        assert not make_observability().enabled
        obs = make_observability(trace=True)
        assert obs.tracer.enabled and not obs.metrics.enabled
        obs = make_observability(metrics=True)
        assert obs.metrics.enabled and not obs.tracer.enabled


# ----------------------------------------------------------------------
# Queue occupancy (stats sampled on pop as well as push)
# ----------------------------------------------------------------------
class TestQueueOccupancy:
    def _record(self, warp=0):
        from repro.events import LogRecord, RecordKind

        return LogRecord(kind=RecordKind.LOAD, warp=warp,
                         active=frozenset({warp}))

    def test_mean_occupancy_samples_push_and_pop(self):
        queue = LogQueue(capacity=8)
        for i in range(3):
            queue.push(self._record(i))  # depths 1, 2, 3
        for _ in range(3):
            queue.pop()  # depths 2, 1, 0
        stats = queue.stats
        assert stats.depth_samples == 6
        assert stats.depth_total == 1 + 2 + 3 + 2 + 1 + 0
        assert stats.mean_occupancy == pytest.approx(9 / 6)
        assert stats.max_depth == 3

    def test_mean_occupancy_is_zero_without_samples(self):
        assert LogQueue(capacity=2).stats.mean_occupancy == 0.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_tracker_keeps_bounded_history_in_order(self):
        tracker = ProvenanceTracker(depth=3)
        for clock in range(5):
            tracker.record("loc", tid=1, access="write", pc=clock,
                           clock=clock, value=clock * 10)
        events = tracker.events("loc", 1)
        assert len(events) == 3
        assert [e.clock for e in events] == [2, 3, 4]  # oldest dropped
        assert [e.seq for e in events] == sorted(e.seq for e in events)
        assert tracker.events("loc", 2) == ()

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ProvenanceTracker(depth=0)

    def test_clock_comparison_verdict(self):
        racy = ClockComparison(current_tid=0, prior_tid=3,
                               prior_clock=5, observed=2)
        ordered = ClockComparison(current_tid=0, prior_tid=3,
                                  prior_clock=2, observed=5)
        assert not racy.ordered and ordered.ordered
        assert "NOT ordered" in str(racy)

    def test_render_includes_source_text(self):
        tracker = ProvenanceTracker(depth=2)
        tracker.record("loc", tid=0, access="write", pc=7, clock=1, value=4)
        tracker.record("loc", tid=1, access="read", pc=9, clock=2)
        provenance = tracker.build(
            "loc", "global[0x10]", current_tid=1, prior_tid=0,
            comparison=ClockComparison(1, 0, 1, 0))
        lines = render_provenance(provenance, {7: "st.global.u32 [%rd1], %r2;"})
        text = "\n".join(lines)
        assert "global[0x10]" in text
        assert "st.global.u32" in text
        assert "failed clock check" in text

    def test_detector_attaches_provenance_to_races(self):
        layout, records = _racy_capture()
        plain = replay(layout, records)
        explained = replay(layout, records,
                           config=DetectorConfig(provenance_depth=4))
        assert explained.races
        for race in explained.races:
            provenance = race.provenance
            assert provenance is not None
            assert provenance.depth == 4
            assert not provenance.comparison.ordered
            assert provenance.comparison.current_tid == race.current_tid
            assert provenance.comparison.prior_tid == race.prior_tid
            # The racing access itself is the newest current-thread event.
            assert provenance.current_events
            assert provenance.current_events[-1].tid == race.current_tid
        # Provenance is evidence, not identity: reports still compare
        # equal to their provenance-free twins.
        assert plain.races == explained.races

    def test_provenance_disabled_by_default(self):
        layout, records = _racy_capture()
        reports = replay(layout, records)
        assert reports.races
        assert all(race.provenance is None for race in reports.races)


# ----------------------------------------------------------------------
# CLI observability flags
# ----------------------------------------------------------------------
@pytest.fixture
def racy_source(tmp_path):
    path = tmp_path / "racy.cu"
    path.write_text(RACY)
    return str(path)


class TestObservabilityCli:
    def run(self, args):
        from repro.cli import main

        return main(args)

    def test_trace_flag_writes_valid_chrome_trace(self, racy_source,
                                                  tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = self.run([racy_source, "--grid", "2", "--buffer", "data:4",
                         "--trace", str(trace)])
        assert code == 1
        payload = json.loads(trace.read_text())
        names = validate_chrome_trace(payload, min_phases=5)
        for phase in ("cuda-frontend", "ptx-parse", "instrument",
                      "execute", "queue-drain", "report"):
            assert phase in names
        assert "trace written" in capsys.readouterr().err

    def test_metrics_flag_prints_parsable_exposition(self, racy_source,
                                                     capsys):
        code = self.run([racy_source, "--grid", "2", "--buffer", "data:4",
                         "--metrics"])
        assert code == 1
        out = capsys.readouterr().out
        exposition = out.split("--------- metrics\n", 1)[1]
        parsed = parse_exposition(exposition)
        assert parsed["repro_races_total"]
        assert parsed["repro_records_logged_total"][0][1] > 0
        (labels, sites), = parsed["repro_instrumented_sites"]
        assert labels == {"kernel": "racy"} and sites > 0
        assert "repro_vector_clock_joins_total" in parsed
        # Detector state: stored cells never outnumber the words covered.
        (_, entries), = parsed["repro_shadow_entries"]
        (_, words), = parsed["repro_shadow_words"]
        assert 0 < entries <= words
        assert "repro_shadow_range_splits" in parsed

    def _families(self, args, capsys):
        """``{family: [(labels, value)]}`` of a run's ``--metrics``
        trailer, every declared family present (even one with no
        samples)."""
        self.run(args + ["--metrics"])
        text = capsys.readouterr().out.split("--------- metrics\n", 1)[1]
        parsed = parse_exposition(text)
        return {name: sorted(parsed.get(name, []), key=repr)
                for name in re.findall(r"^# TYPE (\S+)", text, re.M)}

    @pytest.mark.parametrize("example,launch", [
        ("racy.cu", ["--grid", "2", "--buffer", "data:4"]),
        ("handoff.cu", ["--grid", "2", "--block", "32", "--buffer", "data:4",
                        "--buffer", "flag:4", "--buffer", "out:4"]),
    ])
    def test_check_and_replay_print_one_detector_family(
            self, example, launch, tmp_path, capsys):
        capture = str(tmp_path / "run.bcap")
        check = self._families(
            [str(EXAMPLES / example), *launch, "--capture", capture], capsys)
        replayed = self._families(["replay", capture], capsys)
        detector = {name for name in replayed
                    if name != "repro_replay_records_total"}
        assert {"repro_shadow_entries", "repro_ptvc_warps",
                "repro_races_total"} <= detector
        assert {name: replayed[name] for name in detector} == \
            {name: check[name] for name in detector}
        assert replayed["repro_replay_records_total"] == \
            check["repro_records_logged_total"]

    def test_reference_replay_publishes_only_the_record_count(
            self, tmp_path, capsys):
        # The uncompressed reference detector keeps none of the
        # production detector's state, so none of its family is printed.
        capture = str(tmp_path / "racy.bcap")
        self.run([str(EXAMPLES / "racy.cu"), "--grid", "2", "--buffer",
                  "data:4", "--capture", capture])
        capsys.readouterr()
        families = self._families(["replay", capture, "--reference"], capsys)
        assert families == {"repro_replay_records_total": [({}, 18.0)]}

    def test_check_families_are_the_documented_table(self, capsys):
        families = self._families(
            [str(EXAMPLES / "racy.cu"), "--grid", "2", "--buffer", "data:4"],
            capsys)
        docs = (EXAMPLES.parent / "docs" / "observability.md").read_text()
        table = docs.split("Series a `check` run publishes", 1)[1]
        table = table.split("\n\n", 2)[1]  # the table after the caption
        documented = {
            name for row in table.splitlines()
            for name in re.findall(r"`(repro_\w+)", row.split("|")[1])
        }
        assert set(families) == documented

    def test_stall_cycles_series_is_the_stats_number(self, tmp_path, capsys):
        plan = tmp_path / "stall.json"
        plan.write_text(json.dumps({"faults": [
            {"site": "queue.push", "kind": "ring-full", "nth": 2,
             "times": 3, "payload": {"stall_cycles": 11}}]}))
        args = [str(EXAMPLES / "racy.cu"), "--grid", "2", "--buffer",
                "data:4", "--fault-plan", str(plan)]
        self.run(args + ["--stats"])
        stats = re.search(r"queue stalls +: (\d+) \((\d+) stall cycles\)",
                          capsys.readouterr().out)
        stalls, cycles = map(int, stats.groups())
        assert stalls > 0 and cycles > 0
        families = self._families(args, capsys)
        assert families["repro_queue_stalls_total"] == [({}, stalls)]
        assert families["repro_queue_stall_cycles_total"] == [({}, cycles)]

    def test_stats_format_json(self, racy_source, capsys):
        code = self.run([racy_source, "--grid", "2", "--buffer", "data:4",
                         "--stats", "--stats-format", "json"])
        assert code == 1
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        assert snapshot["repro_records_logged_total"]["type"] == "counter"
        assert "statistics" not in out  # json replaces the text block

    def test_stats_text_format_is_default(self, racy_source, capsys):
        code = self.run([racy_source, "--grid", "2", "--buffer", "data:4",
                         "--stats"])
        assert code == 1
        out = capsys.readouterr().out
        assert "--------- statistics" in out
        assert "mean" in out  # the new mean-occupancy column

    def test_explain_prints_provenance_timeline(self, racy_source, capsys):
        code = self.run(["explain", racy_source, "--grid", "2",
                         "--buffer", "data:4"])
        assert code == 1
        out = capsys.readouterr().out
        assert "explaining" in out
        assert "failed clock check" in out
        assert "PTX line" in out
        assert "st.global" in out  # source text resolved from the PTX

    def test_explain_clean_kernel_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.cu"
        path.write_text("""
__global__ void clean(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid;
}
""")
        code = self.run(["explain", str(path), "--grid", "2",
                         "--block", "64", "--buffer", "data:128"])
        assert code == 0
        assert "no races to explain" in capsys.readouterr().out

    def test_explain_replays_captures(self, tmp_path, capsys):
        from repro.runtime.replay import save_capture

        layout, records = _racy_capture()
        path = tmp_path / "capture.jsonl"
        with open(path, "w") as stream:
            save_capture(stream, layout, records, kernel="racy")
        code = self.run(["explain", str(path)])
        assert code == 1
        assert "failed clock check" in capsys.readouterr().out

    def test_explain_rejects_bad_depth(self, racy_source, capsys):
        code = self.run(["explain", racy_source, "--depth", "0"])
        assert code == 2
        assert "depth" in capsys.readouterr().err
