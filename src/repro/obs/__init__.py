"""Observability: tracing, metrics, profiling, and race provenance.

This package is deliberately dependency-free (both of third-party
packages and of the rest of ``repro``) so every layer of the pipeline
can import it without cycles.  It has five pillars:

* :mod:`~repro.obs.distributed` — the one span recorder
  (:class:`SpanBuffer`: nestable spans on named tracks, wire-encodable,
  with a :class:`TraceContext` that crosses the service's process
  boundary) and the one exporter (:func:`merge_spans`: the spans of one
  process or of client, server and every shard, as one clock-normalized
  Chrome ``trace_event`` object for ``chrome://tracing`` / Perfetto);
* :mod:`~repro.obs.metrics` — a registry of counters, gauges,
  histograms, and top-K profiles with a Prometheus-style text
  exposition and a JSON-able snapshot;
* :mod:`~repro.obs.provenance` — per-race evidence: the most recent
  logged events of the conflicting threads on the racy address and the
  vector-clock comparison that failed;
* :mod:`~repro.obs.profiler` — a counting profiler hooked into the
  engine's closure dispatch (per-opcode / per-source-line
  exclusive time), feeding ``repro profile``;
* :mod:`~repro.obs.flight` — an always-on bounded ring of structured
  lifecycle events per process, dumped into degraded-job payloads and
  via the ``flight`` section of the service's ``STATUS`` verb.

Everything defaults to the shared :data:`NULL_OBS` bundle, whose
components are permanently-disabled no-ops.  Hot paths guard on the
``enabled`` flags, so the disabled path costs one attribute check.
"""

from dataclasses import dataclass, field

from .distributed import (
    NULL_SPANS,
    SpanBuffer,
    TraceContext,
    WireSpan,
    merge_spans,
    root_context,
    validate_chrome_trace,
    write_merged_trace,
)
from .flight import (
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    merge_flight_dumps,
    render_flight,
    write_flight_dump,
)
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    TopK,
    lint_metric_names,
    parse_exposition,
)
from .profiler import NULL_PROFILER, NullProfiler, Profiler
from .provenance import (
    ClockComparison,
    ProvenanceEvent,
    ProvenanceTracker,
    RaceProvenance,
    render_provenance,
)


@dataclass
class Observability:
    """One bundle of span recorder + metrics + profiler threaded through
    the pipeline."""

    tracer: SpanBuffer = field(default_factory=lambda: NULL_SPANS)
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    profiler: Profiler = field(default_factory=lambda: NULL_PROFILER)

    @property
    def enabled(self) -> bool:
        return (self.tracer.enabled or self.metrics.enabled
                or self.profiler.enabled)


#: The shared all-disabled bundle; the default everywhere.
NULL_OBS = Observability()


def make_observability(trace: bool = False, metrics: bool = False,
                       profile: bool = False) -> Observability:
    """Build a bundle with only the requested pillars enabled.

    The recorder is this process's end of the trace (``client``) and is
    unbounded: a command-line run ends, a shard worker does not."""
    return Observability(
        tracer=SpanBuffer("client", limit=None) if trace else NULL_SPANS,
        metrics=MetricsRegistry() if metrics else NULL_METRICS,
        profiler=Profiler() if profile else NULL_PROFILER,
    )
