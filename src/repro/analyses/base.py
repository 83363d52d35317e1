"""Shared plumbing for dynamic analyses built on the record stream.

The paper's final contribution claim: "Our binary instrumentation
framework can serve as a foundation for other CUDA dynamic analyses as
well."  This package cashes that claim in: an analysis is anything that
consumes :class:`repro.events.LogRecord` streams, and
:func:`run_analyses` runs a kernel once under the standard
instrumentation and feeds every analysis the same stream the race
detector would see.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..events import LogRecord
from ..gpu.device import DEFAULT_MAX_STEPS
from ..jobs import LaunchSpec, record_stream
from ..ptx.ast import Module
from ..trace.layout import GridLayout


class RecordAnalysis:
    """Base interface: consume records, then summarize."""

    name = "analysis"

    def consume(self, record: LogRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def summary(self) -> str:  # pragma: no cover
        raise NotImplementedError


def run_analyses(
    module: Module,
    kernel: str,
    grid,
    block,
    analyses: Sequence[RecordAnalysis],
    params: Optional[Dict[str, int]] = None,
    buffers: Optional[Dict[str, List[int]]] = None,
    warp_size: int = 32,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Tuple[GridLayout, List[LogRecord]]:
    """Instrument (pruning off), run, and feed the record stream to every
    analysis.  Returns the layout and the raw records so callers can run
    further passes.
    """
    spec = LaunchSpec(
        source="",  # ``module`` is already compiled
        kernel=kernel,
        grid=grid,
        block=block,
        warp_size=warp_size,
        buffers=tuple(
            (name, len(values), tuple(values))
            for name, values in (buffers or {}).items()
        ),
        scalars=tuple((params or {}).items()),
        max_steps=max_steps,
    )
    layout, records = record_stream(spec, module=module)
    for analysis in analyses:
        for record in records:
            analysis.consume(record)
    return layout, records
