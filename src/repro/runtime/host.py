"""The host-side race detector (paper §4.3).

Each GPU queue is allocated a corresponding host consumer; queue draining
mirrors the device logging algorithm, with the read head advancing over
committed records.  Records are drained across queues in device commit
order — the stamp every push carries — which makes an analysis run
deterministic.  (The paper's per-queue host threads interleave
approximately and rely on per-location locking; commit order is one of
the interleavings they allow.)

In a monitored launch a queue slot holds a row number (:class:`RowSink`):
the record is a row of the launch's columnar :class:`RowLog`, and each
run of consecutive drained numbers is one ``(batch, start, stop)`` range
of it, fed to the detector's fused loop where it lies.  Records from
anywhere else enter through :meth:`HostDetector.consume`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..columnar import KIND_BARRIER, ColumnarBatch, RowLog, iter_batches
from ..core.detector import BarracudaDetector
from ..core.races import DetectorReports
from ..core.races import DetectorConfig
from ..gpu.interpreter import EventSink
from ..trace.layout import GridLayout
from .queue import QueueSet
from ..events import LogRecord

#: Records a stalled producer's drain consumes per commit-order pass.
_DRAIN_BATCH = 64


class HostDetector:
    """Consumes log records and runs the BARRACUDA analysis."""

    def __init__(
        self,
        layout: GridLayout,
        config: Optional[DetectorConfig] = None,
    ) -> None:
        self.layout = layout
        self.detector = BarracudaDetector(layout, config)
        self.granularity = (config or DetectorConfig()).granularity_bytes
        self.records_processed = 0
        #: The launch's row log, once a :class:`RowSink` queued a row of
        #: it: the queues then hold its row numbers.
        self.rows: Optional[RowLog] = None

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def consume(self, records: Iterable[LogRecord]) -> None:
        for batch in iter_batches(records):
            self.consume_columnar(batch)

    def consume_columnar(self, batch: ColumnarBatch, start: int = 0,
                         stop: Optional[int] = None) -> None:
        """Ingest rows ``start`` to ``stop`` (default: all) of one
        columnar warp-batch through the fused loop."""
        self.records_processed += (len(batch) if stop is None else stop) - start
        self.detector.process_columnar(batch, self.granularity, start, stop)

    def consume_rows(self, numbers: List[int]) -> None:
        """Ingest rows of :attr:`rows` by number, in the order given: each
        run of consecutive numbers inside one batch is one range.  No
        numbers (a launch that logs nothing) is a no-op."""
        rows = self.rows
        total = len(numbers)
        position = 0
        while position < total:
            first = numbers[position]
            size = rows.batch_rows
            index, start = divmod(first, size)
            # The run ends at a gap (a drop-commit hole, or a record
            # committed out of order) or at the end of the batch.
            limit = min(total, position + size - start)
            end = position + 1
            while end < limit and numbers[end] == first + end - position:
                end += 1
            count = end - position
            self.consume_columnar(rows.batches[index], start, start + count)
            rows.consumed(index, count)
            position = end

    def drain(self, queues: QueueSet) -> int:
        """Drain everything currently committed; returns records eaten."""
        before = self.records_processed
        self.consume_rows(queues.drain_in_order())
        return self.records_processed - before

    def drain_some(self, queues: QueueSet, queue_index: int) -> None:
        """Free space in one full queue (the producer-stall path §4.2).

        Draining strictly in commit order may require eating records from
        other queues first; that is what the real host threads are doing
        concurrently anyway.
        """
        target = queues.queues[queue_index]
        freed_from = target.read_head
        while target.read_head == freed_from and target.pending():
            self.consume_rows(queues.drain_in_order(limit=_DRAIN_BATCH))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def reports(self) -> DetectorReports:
        return self.detector.reports


class RowSink(EventSink):
    """The live sink of a monitored launch: it queues each record's row
    number on its block's queue (§4.2) and leaves the record where the
    engine wrote it, for ``host`` to read by range."""

    def __init__(self, queues: QueueSet, host: HostDetector) -> None:
        self.queues = queues
        self.host = host
        self._warps_per_block = host.layout.warps_per_block

    def emit_row(self, rows: RowLog, number: int) -> int:
        self.host.rows = rows
        batch, row = rows.locate(number)
        warp = batch.warps[row]
        block = (warp if batch.kinds[row] == KIND_BARRIER
                 else warp // self._warps_per_block)
        return self.queues.push(number, block)
