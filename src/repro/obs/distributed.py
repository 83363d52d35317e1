"""The span recorder: one per process, merged into one Chrome trace.

Every ``--trace`` goes through this module, whether the analysis ran in
this process, in an inline service or on shard workers: a local run is
the one-process case of the merge.

* :class:`SpanBuffer` — the recorder.  Spans nest per thread, paint
  named *tracks* (``main``, ``warp-3``) rather than OS threads, and
  carry monotonic-clock durations projected onto a wall-clock epoch so
  they merge across processes.  A bounded buffer reserves a span's slot
  when the span *opens*: at the limit the earliest-opened spans survive
  — a stage span outlives a flood of ``warp-step`` leaves — and every
  later one is dropped and counted.
* :class:`TraceContext` — trace id, parent span id, and the origin
  process's wall-clock epoch — small enough to ride as one optional
  field on protocol frames;
* :class:`WireSpan` — one finished span in absolute wall-clock seconds
  with a stable JSON payload encoding (:meth:`WireSpan.to_payload` /
  :meth:`WireSpan.from_payload` round-trip exactly);
* :func:`merge_spans` — folds span payloads from any number of
  processes into one clock-normalized Chrome ``trace_event`` object,
  clamping children to never start before their parents (cross-process
  clocks are close, not identical), rendering span ``links`` as Chrome
  flow arrows (SWEEP fan-out children point at their parent) and
  reporting each process's dropped-span count;
* :func:`validate_chrome_trace` — the schema check CI and the tests run
  on every trace file.

:data:`NULL_SPANS` is the default wherever a recorder is accepted; its
``span()`` hands back one shared no-op context manager.  Like the rest
of ``repro.obs`` this module is dependency-free and import-cheap;
worker processes pull it in at fork time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Version stamp carried by span payloads (wire-compat guard).
SPAN_WIRE_VERSION = 1

#: Default bound on retained spans per :class:`SpanBuffer`.
DEFAULT_SPAN_LIMIT = 512

#: Name of the instant a buffer that dropped spans adds to what it ships;
#: its ``count`` argument is how the drop count crosses the wire.
DROPPED_MARKER = "spans-dropped"

#: Process names with a fixed merge order; everything else sorts after.
_PROCESS_ORDER = {"client": 0, "server": 1}


@dataclass(frozen=True)
class TraceContext:
    """What crosses the wire: enough to parent remote spans correctly.

    ``origin_wall`` is the root process's wall-clock epoch; receivers
    keep their own epochs, and :func:`merge_spans` normalizes everything
    against the earliest epoch it sees, so the field mostly serves as a
    sanity anchor (and lets a receiver estimate its clock offset).
    """

    trace_id: str
    parent_span_id: str = ""
    origin_wall: float = 0.0

    def child(self, parent_span_id: str) -> "TraceContext":
        """The context a child process should parent its spans under."""
        return replace(self, parent_span_id=parent_span_id)

    def to_payload(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "origin_wall": self.origin_wall,
        }

    @classmethod
    def from_payload(cls, payload: Optional[dict]) -> Optional["TraceContext"]:
        """None for an absent payload; :class:`ValueError` on garbage."""
        if not payload:
            return None
        if not isinstance(payload, dict):
            raise ValueError(f"trace context must be an object, got {payload!r}")
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ValueError("trace context needs a non-empty 'trace_id'")
        parent = payload.get("parent_span_id", "")
        if not isinstance(parent, str):
            raise ValueError("'parent_span_id' must be a string")
        try:
            origin = float(payload.get("origin_wall", 0.0))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad 'origin_wall': {exc}") from exc
        return cls(trace_id=trace_id, parent_span_id=parent, origin_wall=origin)


def root_context() -> TraceContext:
    """A fresh root context (16-hex-digit trace id) for the process
    starting a trace."""
    return TraceContext(trace_id=uuid.uuid4().hex[:16],
                        origin_wall=time.time())


@dataclass(frozen=True)
class WireSpan:
    """One finished span (or instant) in wire form.

    Timestamps are absolute wall-clock seconds as projected by the
    recording process's :class:`SpanBuffer` epoch; durations are
    monotonic-clock measured.  ``links`` name other span ids this span
    is causally tied to beyond its parent (rendered as flow arrows).
    """

    name: str
    span_id: str
    trace_id: str
    process: str
    parent_id: str = ""
    track: str = "main"
    start_wall: float = 0.0
    duration: float = 0.0
    kind: str = "span"  # "span" | "instant"
    args: Dict[str, object] = field(default_factory=dict)
    links: Tuple[str, ...] = ()

    def to_payload(self) -> dict:
        payload = {
            "v": SPAN_WIRE_VERSION,
            "name": self.name,
            "id": self.span_id,
            "trace": self.trace_id,
            "process": self.process,
            "track": self.track,
            "start": self.start_wall,
            "dur": self.duration,
            "kind": self.kind,
        }
        if self.parent_id:
            payload["parent"] = self.parent_id
        if self.args:
            payload["args"] = dict(self.args)
        if self.links:
            payload["links"] = list(self.links)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "WireSpan":
        if not isinstance(payload, dict):
            raise ValueError(f"span payload must be an object, got {payload!r}")
        version = payload.get("v")
        if version != SPAN_WIRE_VERSION:
            raise ValueError(f"unsupported span wire version {version!r}")
        for key in ("name", "id", "trace", "process"):
            value = payload.get(key)
            if not isinstance(value, str) or not value:
                raise ValueError(f"span payload needs a non-empty {key!r}")
        kind = payload.get("kind", "span")
        if kind not in ("span", "instant"):
            raise ValueError(f"unknown span kind {kind!r}")
        args = payload.get("args", {})
        if not isinstance(args, dict):
            raise ValueError("span 'args' must be an object")
        links = payload.get("links", [])
        if not isinstance(links, list) or not all(
            isinstance(link, str) for link in links
        ):
            raise ValueError("span 'links' must be a list of span ids")
        try:
            start = float(payload.get("start", 0.0))
            duration = float(payload.get("dur", 0.0))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad span timestamps: {exc}") from exc
        if duration < 0:
            raise ValueError(f"negative span duration {duration!r}")
        parent = payload.get("parent", "")
        if not isinstance(parent, str):
            raise ValueError("span 'parent' must be a string")
        return cls(
            name=payload["name"],
            span_id=payload["id"],
            trace_id=payload["trace"],
            process=payload["process"],
            parent_id=parent,
            track=str(payload.get("track", "main")),
            start_wall=start,
            duration=duration,
            kind=kind,
            args=dict(args),
            links=tuple(links),
        )


class _NullSpan:
    """The shared no-op span: what a disabled or full buffer hands out."""

    __slots__ = ()

    def annotate(self, **args) -> None:
        pass

    def __enter__(self) -> str:
        return ""

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """One reserved span; ``with`` yields its id and records it on exit."""

    __slots__ = ("_buffer", "_name", "_track", "_parent", "_links", "_args",
                 "_span_id", "_stack", "_start")

    def __init__(self, buffer: "SpanBuffer", name: str, track: str,
                 parent_id: Optional[str], links: Sequence[str],
                 args: Dict[str, object]) -> None:
        self._buffer = buffer
        self._name = name
        self._track = track
        self._parent = parent_id
        self._links = tuple(filter(None, links))  # "" is no span's id
        self._args = args
        self._span_id = buffer._new_span_id()

    def annotate(self, **args) -> None:
        """Add arguments known only once the block has run."""
        self._args.update(args)

    def __enter__(self) -> str:
        buffer = self._buffer
        self._parent = buffer._parent_of(self._parent)
        self._stack = buffer._stack()
        self._stack.append(self._span_id)
        self._start = buffer.now_wall()
        return self._span_id

    def __exit__(self, *exc_info) -> bool:
        buffer = self._buffer
        duration = max(0.0, buffer.now_wall() - self._start)
        self._stack.pop()
        buffer._record(WireSpan(
            name=self._name,
            span_id=self._span_id,
            trace_id=buffer.context.trace_id,
            process=buffer.process,
            parent_id=self._parent,
            track=self._track,
            start_wall=self._start,
            duration=duration,
            args=self._args,
            links=self._links,
        ))
        return False


class SpanBuffer:
    """Per-process span recorder for one trace.

    The buffer stamps a paired ``(time.time(), perf_counter())`` epoch
    at construction and projects every span start onto the wall clock
    through the monotonic clock — so durations are immune to wall-clock
    steps, and starts are comparable (to within clock offset) across
    processes.  ``limit`` bounds the spans retained (``None``: no
    bound); past it spans are dropped and counted, never grown: a shard
    worker must not balloon because a job traced a million warp steps.
    """

    enabled = True

    def __init__(
        self,
        process: str,
        context: Optional[TraceContext] = None,
        limit: Optional[int] = DEFAULT_SPAN_LIMIT,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self.process = process
        self.context = context if context is not None else root_context()
        self.limit = limit
        self._clock = clock
        self._epoch_wall = wall()
        self._epoch_perf = clock()
        self._spans: List[WireSpan] = []
        self._foreign: List[dict] = []
        self._reserved = 0
        self.dropped = 0
        # Span ids: a per-buffer random prefix and a counter, 16 hex
        # digits together (a uuid4 per span is the cost of the span).
        self._id_prefix = uuid.uuid4().hex[:8]
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    @classmethod
    def for_request(cls, process: str, trace: Optional[dict]) -> "SpanBuffer":
        """The recorder a request's optional serialized ``trace`` context
        asks for: a bounded buffer parented under it, or
        :data:`NULL_SPANS`; :class:`ValueError` on a malformed context."""
        context = TraceContext.from_payload(trace)
        return cls(process, context) if context is not None else NULL_SPANS

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now_wall(self) -> float:
        """The wall-clock 'now' as projected through the monotonic clock."""
        return self._epoch_wall + (self._clock() - self._epoch_perf)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent_of(self, explicit: Optional[str]) -> str:
        if explicit is not None:
            return explicit
        stack = self._stack()
        return stack[-1] if stack else self.context.parent_span_id

    def _new_span_id(self) -> str:
        return f"{self._id_prefix}{next(self._ids):08x}"

    def _reserve(self) -> bool:
        if self.limit is None:
            return True
        with self._lock:
            if self._reserved >= self.limit:
                self.dropped += 1
                return False
            self._reserved += 1
            return True

    def _record(self, span: WireSpan) -> None:
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, track: str = "main",
             parent_id: Optional[str] = None,
             links: Sequence[str] = (), **args):
        """Record a span around a block; ``with`` yields the new span's
        id (``""`` for a dropped span).

        Nesting is tracked per thread: an inner ``span()`` parents to
        the enclosing one unless ``parent_id`` is given explicitly.
        """
        if not self._reserve():
            return _NULL_SPAN
        return _OpenSpan(self, name, track, parent_id, links, args)

    def instant(self, name: str, track: str = "main",
                parent_id: Optional[str] = None, **args) -> None:
        """Record a zero-duration marker (fault fired, retry, watchdog)."""
        if self._reserve():
            self._record(self._instant(name, track, parent_id, args))

    def _instant(self, name: str, track: str, parent_id: Optional[str],
                 args: Dict[str, object]) -> WireSpan:
        return WireSpan(
            name=name,
            span_id=self._new_span_id(),
            trace_id=self.context.trace_id,
            process=self.process,
            parent_id=self._parent_of(parent_id),
            track=track,
            start_wall=self.now_wall(),
            kind="instant",
            args=args,
        )

    # ------------------------------------------------------------------
    # Shipping and merging
    # ------------------------------------------------------------------
    def absorb(self, payloads: Optional[Sequence[dict]]) -> None:
        """Keep span payloads recorded by *other* processes for merging."""
        if not payloads:
            return
        with self._lock:
            self._foreign.extend(p for p in payloads if isinstance(p, dict))

    def to_payloads(self) -> List[dict]:
        """This process's own spans, wire-encoded; a buffer that dropped
        spans says how many in a trailing :data:`DROPPED_MARKER` instant."""
        with self._lock:
            spans, dropped = list(self._spans), self.dropped
        if dropped:
            spans.append(self._instant(DROPPED_MARKER, "main", None,
                                       {"count": dropped}))
        return [span.to_payload() for span in spans]

    def collected_payloads(self) -> List[dict]:
        """Own spans plus everything absorbed from other processes."""
        own = self.to_payloads()
        with self._lock:
            return own + list(self._foreign)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class NullSpanBuffer(SpanBuffer):
    """Permanently-disabled buffer; records nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__("", TraceContext(trace_id="null"))

    def span(self, name, track="main", parent_id=None, links=(), **args):
        return _NULL_SPAN

    def instant(self, *args, **kwargs) -> None:
        pass

    def absorb(self, payloads) -> None:
        pass


#: Shared disabled buffer; the default wherever a span buffer is accepted.
NULL_SPANS = NullSpanBuffer()


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def _process_key(process: str) -> Tuple[int, str]:
    return (_PROCESS_ORDER.get(process, 2), process)


def _normalize(spans: List[WireSpan]) -> Dict[str, float]:
    """Clock-normalized start (µs) per span id, children clamped.

    Cross-process wall clocks agree only approximately; a child span
    recorded on a shard can carry a start a few microseconds before the
    server span that caused it.  Clamping every child to start no
    earlier than its parent restores causal order without touching
    durations.
    """
    base = min(span.start_wall for span in spans)
    by_id = {span.span_id: span for span in spans}
    starts: Dict[str, float] = {}

    def start_of(span: WireSpan, seen: Tuple[str, ...] = ()) -> float:
        cached = starts.get(span.span_id)
        if cached is not None:
            return cached
        value = (span.start_wall - base) * 1e6
        parent = by_id.get(span.parent_id)
        if parent is not None and span.span_id not in seen:
            value = max(value, start_of(parent, seen + (span.span_id,)))
        starts[span.span_id] = value
        return value

    for span in spans:
        start_of(span)
    return starts


def merge_spans(payloads: Sequence[dict]) -> dict:
    """Merge wire-span payloads from any processes into one Chrome trace.

    Invalid payloads are skipped (and counted in ``otherData``) rather
    than failing the merge: a trace is diagnostic output, and one
    corrupt span from a crashing shard must not hide the rest.
    ``otherData["dropped_spans"]`` maps every process in the trace to
    the spans its bounded buffers dropped (the sum of its
    :data:`DROPPED_MARKER` instants).
    """
    spans: List[WireSpan] = []
    skipped = 0
    for payload in payloads:
        try:
            spans.append(WireSpan.from_payload(payload))
        except ValueError:
            skipped += 1
    events: List[dict] = []
    trace_ids = sorted({span.trace_id for span in spans})
    dropped = {span.process: 0 for span in spans}
    for span in spans:
        if span.name == DROPPED_MARKER and type(span.args.get("count")) is int:
            dropped[span.process] += max(0, span.args["count"])
    if spans:
        starts = _normalize(spans)
        # Deterministic pid/tid assignment: client, server, then the
        # shards in name order; tracks in name order within a process.
        processes = sorted({span.process for span in spans}, key=_process_key)
        pids = {name: index + 1 for index, name in enumerate(processes)}
        tids: Dict[Tuple[str, str], int] = {}
        for process in processes:
            events.append({
                "ph": "M", "name": "process_name", "pid": pids[process],
                "tid": 0, "args": {"name": process},
            })
            tracks = sorted({span.track for span in spans
                             if span.process == process})
            for index, track in enumerate(tracks, start=1):
                tids[(process, track)] = index
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pids[process],
                    "tid": index, "args": {"name": track},
                })
        by_id = {span.span_id: span for span in spans}
        flow_id = 0
        for span in sorted(spans, key=lambda s: (starts[s.span_id],
                                                 s.process, s.span_id)):
            pid = pids[span.process]
            tid = tids[(span.process, span.track)]
            ts = round(starts[span.span_id], 3)
            args = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent_id:
                args["parent_id"] = span.parent_id
            if span.kind == "instant":
                events.append({"ph": "i", "name": span.name, "ts": ts,
                               "pid": pid, "tid": tid, "s": "t",
                               "args": args})
                continue
            events.append({
                "ph": "X", "name": span.name, "ts": ts,
                "dur": round(span.duration * 1e6, 3),
                "pid": pid, "tid": tid, "args": args,
            })
            for target_id in span.links:
                target = by_id.get(target_id)
                if target is None:
                    continue
                flow_id += 1
                events.append({
                    "ph": "s", "cat": "link", "name": "fan-out",
                    "id": flow_id, "ts": round(starts[target_id], 3),
                    "pid": pids[target.process],
                    "tid": tids[(target.process, target.track)],
                })
                events.append({
                    "ph": "f", "cat": "link", "name": "fan-out", "bp": "e",
                    "id": flow_id, "ts": ts, "pid": pid, "tid": tid,
                })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "trace_ids": trace_ids,
            "skipped_spans": skipped,
            "dropped_spans": dropped,
        },
    }


def write_merged_trace(target: Union[str, IO[str]],
                       payloads: Sequence[dict]) -> dict:
    """Merge and write a Chrome trace to a path or an open text stream;
    returns the trace object."""
    trace = merge_spans(payloads)
    # One-shot and unindented: the C encoder, which a traced launch's
    # tens of thousands of warp-step events need.
    text = json.dumps(trace)
    if isinstance(target, str):
        with open(target, "w") as handle:
            handle.write(text)
    else:
        target.write(text)
    return trace


def validate_chrome_trace(payload: dict, min_phases: int = 0) -> List[str]:
    """Schema-check a Chrome trace object; returns the distinct span names.

    Raises :class:`ValueError` on malformed payloads.  Used by the CI
    observability smoke step and the test suite.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a Chrome trace object: missing 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    names = []
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"trace event is not an object: {event!r}")
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event!r}")
        if event["ph"] == "X":
            if "ts" not in event or "dur" not in event:
                raise ValueError(f"complete event missing ts/dur: {event!r}")
            if event["dur"] < 0:
                raise ValueError(f"negative duration: {event!r}")
            if event["name"] not in names:
                names.append(event["name"])
    if len(names) < min_phases:
        raise ValueError(
            f"trace has spans for {len(names)} distinct phase(s) "
            f"({names}); expected at least {min_phases}"
        )
    return names
