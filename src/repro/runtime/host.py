"""The host-side race detector (paper §4.3).

Each GPU queue is allocated a corresponding host consumer; queue draining
mirrors the device logging algorithm, with the read head advancing over
committed records.  Records are packed into columnar warp-batches and
fed to the BARRACUDA detector's fused loop.

Two consumption modes are provided:

* ``in_order`` (default) — records are merged across queues by their
  device commit stamp, which makes analysis runs deterministic;
* round-robin batches — the paper's concurrent-consumers regime, where
  cross-queue interleaving is approximate (per-location locking on the
  real system makes this safe there; our detector processes records
  atomically so it is safe here too).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..columnar import ColumnarBatch, iter_batches
from ..core.detector import BarracudaDetector
from ..core.races import DetectorReports
from ..core.races import DetectorConfig
from ..obs import NULL_OBS, Observability
from ..trace.layout import GridLayout
from .queue import QueueSet
from ..events import LogRecord


class HostDetector:
    """Consumes log records and runs the BARRACUDA analysis."""

    def __init__(
        self,
        layout: GridLayout,
        config: Optional[DetectorConfig] = None,
        in_order: bool = True,
        batch_size: int = 64,
        obs: Observability = NULL_OBS,
        kernel: str = "",
    ) -> None:
        self.layout = layout
        self.detector = BarracudaDetector(layout, config)
        self.granularity = (config or DetectorConfig()).granularity_bytes
        self.in_order = in_order
        self.batch_size = batch_size
        self.records_processed = 0
        self.kernel = kernel
        # Pre-resolved instruments; None when metrics are disabled so
        # the per-record hot path pays one is-None check.
        self._events_by_kind = self._hot_pcs = self._hot_addrs = None
        if obs.metrics.enabled:
            self._events_by_kind = obs.metrics.counter(
                "repro_events_ingested_total",
                "Log records ingested by the host detector, by record kind",
                ("kind",),
            )
            self._hot_pcs = obs.metrics.topk(
                "repro_hot_ptx_instructions",
                "Most-logged PTX source lines per kernel",
                ("kernel",),
            )
            self._hot_addrs = obs.metrics.topk(
                "repro_hot_addresses",
                "Most-accessed shared/global addresses per kernel",
                ("kernel",),
            )

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def consume(self, records: Iterable[LogRecord]) -> None:
        for batch in iter_batches(records):
            self.consume_columnar(batch)

    def consume_columnar(self, batch: ColumnarBatch) -> None:
        """Ingest one columnar warp-batch through the fused loop.

        Metrics observe per record, materializing rows only when
        instrumentation is on.
        """
        self.records_processed += len(batch)
        if self._events_by_kind is not None:
            for record in batch.iter_records():
                self._observe_record(record)
        self.detector.process_columnar(batch, self.granularity)

    def _observe_record(self, record: LogRecord) -> None:
        """Metrics-enabled path: profile one ingested record."""
        self._events_by_kind.inc(kind=record.kind.name.lower())
        if record.pc >= 0:
            self._hot_pcs.observe(f"line:{record.pc}", kernel=self.kernel)
        for space, addr in record.addrs.values():
            self._hot_addrs.observe(
                f"{space.name.lower()}:0x{addr:x}", kernel=self.kernel
            )

    def drain(self, queues: QueueSet) -> int:
        """Drain everything currently committed; returns records eaten."""
        before = self.records_processed
        if self.in_order:
            self.consume(queues.drain_in_order())
        else:
            while queues.pending():
                self.consume(queues.drain_round_robin(self.batch_size))
        return self.records_processed - before

    def drain_some(self, queues: QueueSet, queue_index: int) -> None:
        """Free space in one full queue (the producer-stall path §4.2).

        Draining strictly in commit order may require eating records from
        other queues first; that is what the real host threads are doing
        concurrently anyway.
        """
        if self.in_order:
            target = queues.queues[queue_index]
            freed_from = target.read_head
            while target.read_head == freed_from and target.pending():
                self.consume(queues.drain_in_order(limit=self.batch_size))
        else:
            self.consume(queues.queues[queue_index].pop_batch(self.batch_size))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def reports(self) -> DetectorReports:
        return self.detector.reports
