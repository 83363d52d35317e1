"""The host-side race detector (paper §4.3).

Each GPU queue is allocated a corresponding host consumer; queue draining
mirrors the device logging algorithm, with the read head advancing over
committed records.  Records are drained across queues in device commit
order — the stamp every push carries — which makes an analysis run
deterministic; they are packed into columnar warp-batches and fed to the
BARRACUDA detector's fused loop.  (The paper's per-queue host threads
interleave approximately and rely on per-location locking; commit order
is one of the interleavings they allow.)
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..columnar import ColumnarBatch, iter_batches
from ..core.detector import BarracudaDetector
from ..core.races import DetectorReports
from ..core.races import DetectorConfig
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

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def consume(self, records: Iterable[LogRecord]) -> None:
        for batch in iter_batches(records):
            self.consume_columnar(batch)

    def consume_columnar(self, batch: ColumnarBatch) -> None:
        """Ingest one columnar warp-batch through the fused loop."""
        self.records_processed += len(batch)
        self.detector.process_columnar(batch, self.granularity)

    def drain(self, queues: QueueSet) -> int:
        """Drain everything currently committed; returns records eaten."""
        before = self.records_processed
        self.consume(queues.drain_in_order())
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
            self.consume(queues.drain_in_order(limit=_DRAIN_BATCH))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def reports(self) -> DetectorReports:
        return self.detector.reports
