"""Live statistics of the race-detection service.

Three layers of accounting, all cheap enough to keep on the hot path:

* :class:`JobStats` — per-job records/sec, batch-latency percentiles,
  and the pending-record queue depth the backpressure logic steers by;
* :class:`WorkerStats` — per-shard busy time and utilization.  Because
  every shard is a single serial worker, ``max(busy_seconds)`` across
  shards is the critical path of a load under perfect overlap — the
  quantity the throughput benchmark scales against worker count;
* :class:`ServiceStats` — the aggregate snapshot served as the ``stats``
  section of the ``STATUS`` verb and printed by ``replay --socket
  --stats``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..obs import MetricsRegistry

#: Cap on retained batch latencies per job (newest kept, a plain bound —
#: enough resolution for p50/p90/p99 without unbounded growth).
LATENCY_SAMPLE_CAP = 4096

#: Finished jobs a service remembers — their per-job ``STATUS`` rows here,
#: their reports for idempotent resubmission in the server.  Open jobs
#: are always kept; the aggregate counters stay exact across eviction.
FINISHED_JOBS_RETAINED = 256


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass
class JobStats:
    """Throughput and latency accounting for one submitted capture."""

    job_id: str
    kernel: str = ""
    started_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None
    state: str = "open"  # open | done | failed | aborted
    error: str = ""
    records_in: int = 0
    batches_in: int = 0
    batches_done: int = 0
    #: Records submitted to the worker pool but not yet processed — the
    #: queue depth the high-water backpressure check reads.
    pending_records: int = 0
    peak_pending: int = 0
    busy_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)

    def batch_submitted(self, records: int) -> None:
        self.records_in += records
        self.batches_in += 1
        self.pending_records += records
        if self.pending_records > self.peak_pending:
            self.peak_pending = self.pending_records

    def batch_done(self, records: int, elapsed: float) -> None:
        self.batches_done += 1
        self.pending_records = max(0, self.pending_records - records)
        self.busy_seconds += elapsed
        self.latencies.append(elapsed)
        if len(self.latencies) > LATENCY_SAMPLE_CAP:
            del self.latencies[: len(self.latencies) - LATENCY_SAMPLE_CAP]

    def finish(self, state: str = "done", error: str = "") -> None:
        self.state = state
        self.error = error
        self.finished_at = time.monotonic()

    @property
    def elapsed_seconds(self) -> float:
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return max(end - self.started_at, 1e-9)

    @property
    def records_per_sec(self) -> float:
        return self.records_in / self.elapsed_seconds

    def snapshot(self) -> dict:
        return {
            "job_id": self.job_id,
            "kernel": self.kernel,
            "state": self.state,
            "error": self.error,
            "records_in": self.records_in,
            "batches_in": self.batches_in,
            "batches_done": self.batches_done,
            "pending_records": self.pending_records,
            "peak_pending": self.peak_pending,
            "records_per_sec": round(self.records_per_sec, 1),
            "busy_seconds": round(self.busy_seconds, 6),
            "batch_latency_ms": {
                "p50": round(percentile(self.latencies, 0.50) * 1e3, 3),
                "p90": round(percentile(self.latencies, 0.90) * 1e3, 3),
                "p99": round(percentile(self.latencies, 0.99) * 1e3, 3),
            },
        }


@dataclass
class WorkerStats:
    """One pool shard: a single serial detector worker."""

    shard: int
    jobs_assigned: int = 0
    batches: int = 0
    records: int = 0
    busy_seconds: float = 0.0

    def utilization(self, wall_seconds: float) -> float:
        return self.busy_seconds / max(wall_seconds, 1e-9)

    def snapshot(self, wall_seconds: float) -> dict:
        return {
            "shard": self.shard,
            "jobs_assigned": self.jobs_assigned,
            "batches": self.batches,
            "records": self.records,
            "busy_seconds": round(self.busy_seconds, 6),
            "utilization": round(self.utilization(wall_seconds), 4),
        }


class ServiceStats:
    """Aggregate view over all jobs and workers of one service."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        #: Every open job plus the :data:`FINISHED_JOBS_RETAINED` most
        #: recently finished ones, so a ``STATUS`` reply has a bounded size
        #: however long the service has run.
        self.jobs: Dict[str, JobStats] = {}
        self._finished: Deque[str] = deque()
        self._evicted_records_in = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_aborted = 0
        self.jobs_degraded = 0

    def open_job(self, job_id: str, kernel: str = "") -> JobStats:
        job = JobStats(job_id=job_id, kernel=kernel)
        self.jobs[job_id] = job
        return job

    def finish_job(self, job_id: str, state: str, error: str = "") -> None:
        job = self.jobs.get(job_id)
        if job is None or job.state != "open":
            return
        job.finish(state, error)
        if state == "done":
            self.jobs_done += 1
        elif state == "failed":
            self.jobs_failed += 1
        elif state == "aborted":
            self.jobs_aborted += 1
        elif state == "degraded":
            self.jobs_degraded += 1
        self._finished.append(job_id)
        while len(self._finished) > FINISHED_JOBS_RETAINED:
            evicted = self.jobs.pop(self._finished.popleft())
            self._evicted_records_in += evicted.records_in

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def snapshot(self, workers: Optional[List[WorkerStats]] = None) -> dict:
        uptime = self.uptime_seconds
        return {
            "uptime_seconds": round(uptime, 3),
            "jobs_open": sum(1 for j in self.jobs.values() if j.state == "open"),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_aborted": self.jobs_aborted,
            "jobs_degraded": self.jobs_degraded,
            "records_in": self._evicted_records_in
            + sum(j.records_in for j in self.jobs.values()),
            "pending_records": sum(j.pending_records for j in self.jobs.values()),
            "jobs": {job_id: job.snapshot() for job_id, job in self.jobs.items()},
            "workers": [w.snapshot(uptime) for w in workers or []],
        }


def metrics_registry_from_snapshot(snapshot: dict) -> MetricsRegistry:
    """Build a :class:`MetricsRegistry` from a ``stats`` snapshot.

    This is what the ``STATUS`` verb's ``metrics`` section serves: the
    same live accounting as ``stats``, but rendered through the registry so
    clients get Prometheus text exposition plus the registry's JSON
    snapshot.  Per-job series carry the ``job`` label, so counters stay
    isolated between concurrent jobs.
    """
    registry = MetricsRegistry()
    registry.gauge(
        "repro_service_uptime_seconds", "Service uptime"
    ).set(snapshot.get("uptime_seconds", 0.0))
    jobs_gauge = registry.gauge(
        "repro_service_jobs", "Jobs by lifecycle state", ("state",)
    )
    for state in ("open", "done", "failed", "aborted", "degraded"):
        jobs_gauge.set(snapshot.get(f"jobs_{state}", 0), state=state)
    registry.counter(
        "repro_service_records_in_total", "Records ingested across all jobs"
    ).inc(snapshot.get("records_in", 0))
    registry.gauge(
        "repro_service_pending_records",
        "Records submitted to workers but not yet processed",
    ).set(snapshot.get("pending_records", 0))
    job_records = registry.counter(
        "repro_service_job_records_total", "Records ingested per job", ("job",)
    )
    job_batches = registry.counter(
        "repro_service_job_batches_total", "Batches ingested per job", ("job",)
    )
    job_pending = registry.gauge(
        "repro_service_job_pending_records", "Pending records per job", ("job",)
    )
    job_latency = registry.gauge(
        "repro_service_job_batch_latency_ms",
        "Per-job batch latency percentiles",
        ("job", "quantile"),
    )
    for job_id in sorted(snapshot.get("jobs", {})):
        job = snapshot["jobs"][job_id]
        job_records.inc(job.get("records_in", 0), job=job_id)
        job_batches.inc(job.get("batches_in", 0), job=job_id)
        job_pending.set(job.get("pending_records", 0), job=job_id)
        for quantile, value in job.get("batch_latency_ms", {}).items():
            job_latency.set(value, job=job_id, quantile=quantile)
    worker_batches = registry.counter(
        "repro_service_worker_batches_total", "Batches per pool shard", ("shard",)
    )
    worker_records = registry.counter(
        "repro_service_worker_records_total", "Records per pool shard", ("shard",)
    )
    worker_busy = registry.counter(
        "repro_service_worker_busy_seconds_total",
        "Busy time per pool shard",
        ("shard",),
    )
    worker_util = registry.gauge(
        "repro_service_worker_utilization",
        "Busy fraction of uptime per pool shard",
        ("shard",),
    )
    for worker in snapshot.get("workers", []):
        shard = str(worker.get("shard", 0))
        worker_batches.inc(worker.get("batches", 0), shard=shard)
        worker_records.inc(worker.get("records", 0), shard=shard)
        worker_busy.inc(worker.get("busy_seconds", 0.0), shard=shard)
        worker_util.set(worker.get("utilization", 0.0), shard=shard)
    return registry


def render_job_stats(snapshot: dict) -> str:
    """Human-readable rendering of one job snapshot (``replay --socket --stats``)."""
    latency = snapshot.get("batch_latency_ms", {})
    lines = [
        "--------- job statistics",
        f"  job id                  : {snapshot.get('job_id', '?')}",
        f"  records ingested        : {snapshot.get('records_in', 0)} "
        f"in {snapshot.get('batches_in', 0)} batch(es)",
        f"  throughput              : {snapshot.get('records_per_sec', 0.0)} records/sec",
        f"  batch latency (ms)      : p50 {latency.get('p50', 0.0)} / "
        f"p90 {latency.get('p90', 0.0)} / p99 {latency.get('p99', 0.0)}",
        f"  peak queue depth        : {snapshot.get('peak_pending', 0)} records",
    ]
    return "\n".join(lines)


def render_service_stats(snapshot: dict) -> str:
    """Human-readable rendering of the aggregate ``stats`` snapshot."""
    lines = [
        "--------- service statistics",
        f"  uptime                  : {snapshot.get('uptime_seconds', 0.0)}s",
        f"  jobs                    : {snapshot.get('jobs_open', 0)} open / "
        f"{snapshot.get('jobs_done', 0)} done / "
        f"{snapshot.get('jobs_failed', 0)} failed / "
        f"{snapshot.get('jobs_aborted', 0)} aborted / "
        f"{snapshot.get('jobs_degraded', 0)} degraded",
        f"  records ingested        : {snapshot.get('records_in', 0)} "
        f"({snapshot.get('pending_records', 0)} pending)",
    ]
    for worker in snapshot.get("workers", []):
        lines.append(
            f"  worker {worker['shard']:<2}               : "
            f"{worker['batches']} batch(es), {worker['records']} record(s), "
            f"{worker['utilization']:.1%} utilized"
        )
    return "\n".join(lines)
