"""The ledger's own in-memory span recorder.

The benchmark times the program from the outside: every span here wraps
one call from ``benchmarks/ledger/`` into a public function of a layer,
so the recorder deliberately shares no code with ``repro.obs`` — a
change to the program's tracer cannot move the benchmark's numbers.

A span is ``(name, start, end, parent, args)``.  Spans nest by call
order (single thread), are kept in memory, and are written out once at
exit as Chrome ``trace_event`` JSON.  A layer's *self* time is its
span's duration minus the part its direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Span:
    __slots__ = ("name", "start", "end", "parent", "args")

    def __init__(self, name: str, start: float, parent: int, args: dict) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), parent, args)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: duration minus direct children's."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        result: Dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            result[span.name] = result.get(span.name, 0.0) + span.duration - child_time
        return result

    def chrome_trace(self) -> dict:
        """The spans as a Chrome ``trace_event`` JSON object."""
        epoch = self.spans[0].start if self.spans else 0.0
        events = [{
            "ph": "M", "name": "process_name", "pid": 1, "tid": 1,
            "args": {"name": f"ledger:{self.workload}"},
        }]
        for index, span in enumerate(self.spans):
            events.append({
                "ph": "X", "name": span.name, "pid": 1, "tid": 1,
                "ts": round((span.start - epoch) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": dict(span.args, id=index, parent=span.parent,
                             workload=self.workload),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.chrome_trace(), stream)

