"""Sharded detector worker pool.

The service decouples ingest from analysis exactly the way BARRACUDA
decouples GPU logging from host detection (§4): the only interface is a
stream of records.  Each submitted capture ("job") gets its own
:class:`~repro.runtime.host.HostDetector` living inside one pool shard.

Sharding is **job-affine**: a job is assigned to a shard when opened
(round-robin, deterministic in arrival order) and every one of its
record batches is executed on that shard.  Because each shard is a
single serial worker — one `ProcessPoolExecutor` of one process — the
batches of a job are processed in submission order, which preserves the
per-queue record ordering the detector's operational semantics assume,
while distinct jobs run genuinely in parallel on distinct processes.

Results merge deterministically: each job's report is serialized with a
total order over race reports (:func:`repro.core.races.reports_to_payload`),
so worker scheduling can never change the bytes a client receives.

``workers=0`` selects the inline mode: the same code paths, executed
synchronously in the calling process — used by tests, by environments
without ``fork``, and by the modeled-throughput benchmark.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.races import DetectorConfig
from ..errors import ReproError
from ..faults import FaultInjector, FaultPlan
from ..faults import sites as fault_sites
from ..jobs import staged_job
from ..obs import (
    NULL_SPANS,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    SpanBuffer,
)
from ..runtime.host import HostDetector
from ..trace.layout import GridLayout
from . import protocol
from .stats import WorkerStats


class ShardCrashError(Exception):
    """A shard worker died mid-job (the inline-mode stand-in for a
    ``BrokenProcessPool``).

    Deliberately *not* a :class:`~repro.errors.ReproError`: job-level
    errors (garbage records, poison) fail the job deterministically,
    while a shard crash is a runtime casualty the server answers with
    respawn + requeue.  Keeping the types apart keeps the two recovery
    paths apart.
    """


# ----------------------------------------------------------------------
# Worker-process side.  Each shard process keeps the detectors of the
# jobs assigned to it in this module-level registry; the executor's
# single worker serializes all access.
# ----------------------------------------------------------------------
_WORKER_JOBS: Dict[str, HostDetector] = {}
#: Per-job fault injector (from the service's ``--fault-plan``) and the
#: inline flag that decides how a ``crash`` fault manifests.
_WORKER_FAULTS: Dict[str, Tuple[FaultInjector, bool]] = {}
#: Per-job span recorder (``NULL_SPANS`` unless the job is traced);
#: shipped back piggybacked on the close payload.
_WORKER_SPANS: Dict[str, SpanBuffer] = {}
#: Always-on per-process registry the shard's staged-job stages and
#: fault injectors publish into, aggregated by the server's STATUS
#: ``metrics`` section under a ``shard`` label.  Record batches publish
#: nothing here: the server counts them once, in ``WorkerStats``, from
#: the ``(count, busy)`` pair :func:`_worker_batch` returns.
_WORKER_METRICS = MetricsRegistry()
#: Always-on flight recorder, named lazily once the shard index is known.
_WORKER_FLIGHT = FlightRecorder("shard-?")


def _worker_ident(shard: int) -> str:
    """Name this worker process after its shard (idempotent)."""
    name = f"shard-{shard}"
    if _WORKER_FLIGHT.process != name:
        _WORKER_FLIGHT.process = name
    return name


def _worker_open(job_id: str, layout: GridLayout,
                 config: Optional[DetectorConfig],
                 fault_plan: Optional[dict] = None,
                 inline: bool = False,
                 trace: Optional[dict] = None,
                 shard: int = 0) -> bool:
    if job_id in _WORKER_JOBS:
        raise ReproError(f"job {job_id!r} already open on this shard")
    process = _worker_ident(shard)
    _WORKER_JOBS[job_id] = HostDetector(layout, config)
    spans = _WORKER_SPANS[job_id] = SpanBuffer.for_request(process, trace)
    if fault_plan:
        _WORKER_FAULTS[job_id] = (
            FaultInjector(FaultPlan.from_dict(fault_plan),
                          obs=Observability(tracer=spans,
                                            metrics=_WORKER_METRICS),
                          flight=_WORKER_FLIGHT),
            inline,
        )
    _WORKER_FLIGHT.record("job-open", job=job_id, traced=spans.enabled)
    return True


def _apply_worker_fault(fault, inline: bool) -> None:
    if fault.kind == fault_sites.CRASH:
        if inline:
            # No process to kill in inline mode; surface the same
            # condition as the typed crash marker instead.
            raise ShardCrashError("injected worker crash")
        os._exit(int(fault.arg("exit_code", 23)))
    if fault.kind == fault_sites.HANG:
        # The server-side watchdog is what bounds this sleep; a hung
        # worker never returns on its own.
        time.sleep(float(fault.arg("seconds", 3600.0)))
        return
    # poison: a deterministic per-record failure — fails the job, not
    # the shard, and requeueing would only reproduce it.
    raise ReproError("injected poison record in batch")


def _worker_batch(job_id: str,
                  frames: Sequence[Tuple[str, int]]) -> Tuple[int, float]:
    """Process ``(encoded batch, record count)`` frames in order; returns
    (records eaten, busy seconds)."""
    detector = _WORKER_JOBS.get(job_id)
    if detector is None:
        raise ReproError(f"job {job_id!r} is not open on this shard")
    faulty = _WORKER_FAULTS.get(job_id)
    if faulty is not None:
        injector, inline = faulty
        fault = injector.check(fault_sites.WORKER_BATCH,
                               sum(len(encoded) for encoded, _n in frames))
        if fault is not None:
            _apply_worker_fault(fault, inline)
    spans = _WORKER_SPANS[job_id]
    count = sum(n for _encoded, n in frames)
    start = time.perf_counter()
    # The same name a local ``repro replay`` gives this work; the trace's
    # process track already says which shard ran it.
    with spans.span("replay", job=job_id, records=count):
        for encoded, declared in frames:
            batch = protocol.decode_batch_wire(encoded)
            if len(batch) != declared:
                raise ReproError(
                    f"corrupt batch frame: count says {declared} record(s), "
                    f"the batch holds {len(batch)}")
            detector.consume_columnar(batch)
    return count, time.perf_counter() - start


def _worker_close(job_id: str) -> dict:
    """Finish a job; returns the deterministically-serialized reports.

    A traced job's shard spans ride back piggybacked under a ``spans``
    key; the server pops it before the payload becomes the report body,
    so report bytes stay independent of whether tracing was on.
    """
    detector = _WORKER_JOBS.pop(job_id, None)
    _WORKER_FAULTS.pop(job_id, None)
    spans = _WORKER_SPANS.pop(job_id, NULL_SPANS)
    if detector is None:
        raise ReproError(f"job {job_id!r} is not open on this shard")
    payload = protocol.reports_to_payload(detector.reports)
    payload["records_processed"] = detector.records_processed
    _WORKER_FLIGHT.record("job-close", job=job_id,
                          records=detector.records_processed)
    if spans.enabled:
        payload["spans"] = spans.to_payloads()
    return payload


def _worker_discard(job_id: str) -> bool:
    _WORKER_FAULTS.pop(job_id, None)
    _WORKER_SPANS.pop(job_id, None)
    dropped = _WORKER_JOBS.pop(job_id, None) is not None
    if dropped:
        _WORKER_FLIGHT.record("job-discard", job=job_id)
    return dropped


def _worker_init() -> None:
    """Start a shard process from a clean slate.

    Fork-started workers inherit whatever this module accumulated in
    the parent (an inline pool's detectors, counters and flight events
    look like this shard's own history otherwise), so every executor
    runs this as its initializer; inline pools call it at construction
    for the same per-pool-lifetime semantics.
    """
    _WORKER_JOBS.clear()
    _WORKER_FAULTS.clear()
    _WORKER_SPANS.clear()
    _WORKER_METRICS.reset()
    _WORKER_FLIGHT.clear()


def _worker_status(section: str, shard: int) -> dict:
    """This shard process's share of a STATUS section: its registry
    snapshot (``metrics``) or its flight ring (``flight``, which degraded
    reports carry too)."""
    _worker_ident(shard)
    if section == "metrics":
        return _WORKER_METRICS.snapshot()
    return _WORKER_FLIGHT.dump()


def _worker_stage(job_name: str, stage: str, request, plan: dict, arg,
                  trace: Optional[dict] = None, shard: int = 0) -> dict:
    """Run one stage of a staged job (SWEEP, FIX) on this shard.

    Stateless: the request carries the launch spec, so any stage can
    land on any shard.  :func:`repro.jobs.staged_job` imports the job's
    module on first use — record-stream jobs never pay for the
    predict/repair stack.  ``arg`` is the item index (item stages) or
    the item payloads (finalize).  A traced stage runs under its own
    span recorder — the stage's ``obs.tracer``, so it records the spans
    a local run of the job records — and attaches them under a ``spans``
    key (popped server-side before the deterministic merge).
    """
    job = staged_job(job_name)
    buffer = SpanBuffer.for_request(_worker_ident(shard), trace)
    payload = job.run_stage(
        stage, request, plan, arg,
        Observability(tracer=buffer, metrics=_WORKER_METRICS))
    if buffer.enabled:
        payload["spans"] = buffer.to_payloads()
    return payload


def _completed(result) -> Future:
    future: Future = Future()
    future.set_result(result)
    return future


def _failed(exc: BaseException) -> Future:
    future: Future = Future()
    future.set_exception(exc)
    return future


class ShardedDetectorPool:
    """Dispatches job record streams across job-affine detector shards."""

    def __init__(
        self,
        workers: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 0:
            raise ReproError(f"worker count must be >= 0, got {workers}")
        self.workers = workers
        # Shipped to workers as a plain dict; each shard process builds
        # its own injector per job so nth-hit counting is deterministic
        # regardless of which shard a job lands on.
        self.fault_plan_payload = fault_plan.to_dict() if fault_plan else None
        self._executors: List[ProcessPoolExecutor] = [
            ProcessPoolExecutor(max_workers=1, initializer=_worker_init)
            for _ in range(workers)
        ]
        if not workers:
            _worker_init()
        self._assignments: Dict[str, int] = {}
        self._next_shard = 0
        self._lock = threading.Lock()
        shards = max(workers, 1)
        self.worker_stats = [WorkerStats(shard=i) for i in range(shards)]
        self._backlog = [0] * shards
        self._broken = [False] * shards
        self._restarts = [0] * shards

    @property
    def inline(self) -> bool:
        return self.workers == 0

    # ------------------------------------------------------------------
    # Shard assignment
    # ------------------------------------------------------------------
    def shard_of(self, job_id: str) -> int:
        shard = self._assignments.get(job_id)
        if shard is None:
            raise ReproError(f"job {job_id!r} is not open")
        return shard

    def _assign(self, job_id: str) -> int:
        with self._lock:
            if job_id in self._assignments:
                raise ReproError(f"job {job_id!r} already open")
            shard = self._next_shard % max(self.workers, 1)
            self._next_shard += 1
            self._assignments[job_id] = shard
            self.worker_stats[shard].jobs_assigned += 1
        return shard

    def _dispatch(self, shard: int, fn, *args) -> Future:
        if self.inline:
            try:
                return _completed(fn(*args))
            except Exception as exc:  # parity with executor futures
                return _failed(exc)
        try:
            return self._executors[shard].submit(fn, *args)
        except (BrokenExecutor, RuntimeError) as exc:
            # A broken (crashed) or shut-down executor rejects at submit
            # time; fold that into the future so callers have one error
            # path.
            return _failed(exc)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def open_job(self, job_id: str, layout: GridLayout,
                 config: Optional[DetectorConfig] = None,
                 trace: Optional[dict] = None) -> Future:
        shard = self._assign(job_id)
        return self._dispatch(
            shard, _worker_open, job_id, layout, config,
            self.fault_plan_payload, self.inline, trace, shard,
        )

    def submit_batch(self, job_id: str,
                     frames: Sequence[Tuple[str, int]]) -> Future:
        """Queue ``(encoded batch, record count)`` frames on the job's
        shard as one unit of work; resolves to (count, busy)."""
        shard = self.shard_of(job_id)
        with self._lock:
            self._backlog[shard] += 1
        generation = None if self.inline else self._executors[shard]
        future = self._dispatch(shard, _worker_batch, job_id, list(frames))
        future.add_done_callback(lambda f: self._account(shard, f, generation))
        return future

    def _account(self, shard: int, future: Future,
                 generation=None) -> None:
        # Futures of a terminated executor can resolve *after* the shard
        # was respawned; only the current generation may touch liveness.
        current = (generation is None
                   or (shard < len(self._executors)
                       and self._executors[shard] is generation))
        with self._lock:
            if current:
                self._backlog[shard] = max(0, self._backlog[shard] - 1)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            # A broken executor means the shard process itself is gone;
            # mark it dead so the health section reflects reality until
            # a respawn.
            if current and isinstance(exc, (BrokenExecutor, ShardCrashError)):
                with self._lock:
                    self._broken[shard] = True
            return
        count, busy = future.result()
        with self._lock:
            stats = self.worker_stats[shard]
            stats.batches += 1
            stats.records += count
            stats.busy_seconds += busy

    def close_job(self, job_id: str) -> Future:
        """Finish a job; resolves to the serialized report payload."""
        shard = self.shard_of(job_id)
        future = self._dispatch(shard, _worker_close, job_id)
        with self._lock:
            self._assignments.pop(job_id, None)
        return future

    def discard_job(self, job_id: str) -> Future:
        """Drop a job without a report (failed or disconnected client)."""
        with self._lock:
            shard = self._assignments.pop(job_id, None)
        if shard is None:
            return _completed(False)
        if not self.inline and self._broken[shard]:
            # Nothing to clean up: the shard process (and the detector
            # state it held) is already gone.
            return _completed(True)
        return self._dispatch(shard, _worker_discard, job_id)

    # ------------------------------------------------------------------
    # Staged jobs (the SWEEP and FIX verbs)
    # ------------------------------------------------------------------
    def submit_stage(self, shard: int, job_name: str, stage: str, request,
                     plan: dict, arg=None,
                     trace: Optional[dict] = None) -> Future:
        """Run one staged-job stage on ``shard``; resolves to its payload.

        The caller picks the shard arithmetically (plan and finalize on
        0, item ``index`` on ``index % shards``), not from round-robin
        state, so the fan-out is deterministic regardless of
        interleaved record jobs.
        """
        return self._dispatch(shard, _worker_stage, job_name, stage, request,
                              plan, arg, trace, shard)

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------
    def respawn_shard(self, shard: int) -> None:
        """Replace a crashed or hung shard process with a fresh one.

        Hung workers do not respond to a graceful shutdown, so the old
        executor's processes are terminated outright; its queued futures
        fail with ``BrokenProcessPool``/cancellation, which the server's
        per-batch watchers already treat as a shard casualty.
        """
        if self.inline:
            with self._lock:
                self._broken[0] = False
                self._backlog[0] = 0
                self._restarts[0] += 1
            return
        old = self._executors[shard]
        for process in list(getattr(old, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:
                pass
        old.shutdown(wait=False, cancel_futures=True)
        self._executors[shard] = ProcessPoolExecutor(
            max_workers=1, initializer=_worker_init)
        with self._lock:
            self._broken[shard] = False
            self._backlog[shard] = 0
            self._restarts[shard] += 1

    def requeue_job(self, job_id: str, layout: GridLayout,
                    config: Optional[DetectorConfig] = None,
                    trace: Optional[dict] = None,
                    ) -> Tuple[Future, int]:
        """Reassign a job to a surviving shard and re-open it there.

        Picks the least-backlogged live shard other than the one the job
        was on (with a single shard, the respawned shard itself).
        Returns ``(open future, new shard)``; the caller replays the
        job's retained frames once the open resolves.
        """
        with self._lock:
            old = self._assignments.pop(job_id, None)
            candidates = [
                s for s in range(max(self.workers, 1))
                if s != old and not self._broken[s]
            ] or [s for s in range(max(self.workers, 1)) if not self._broken[s]]
            if not candidates:
                raise ReproError("no live shard to requeue onto")
            new = min(candidates, key=lambda s: (self._backlog[s], s))
            self._assignments[job_id] = new
            self.worker_stats[new].jobs_assigned += 1
        if self.inline:
            # Same process: drop whatever half-ingested detector state
            # the crashed attempt left behind before re-opening.
            _worker_discard(job_id)
        return (
            self._dispatch(
                new, _worker_open, job_id, layout, config,
                self.fault_plan_payload, self.inline, trace, new,
            ),
            new,
        )

    # ------------------------------------------------------------------
    # Cross-process observability gathering
    # ------------------------------------------------------------------
    def status_futures(self, section: str) -> List[Tuple[int, Future]]:
        """One future per live shard of its share of a STATUS section
        (``metrics`` or ``flight``); broken shards are skipped (they have
        no process to answer, and the health section already reports
        them dead)."""
        return [(shard, self._dispatch(shard, _worker_status, section, shard))
                for shard in range(max(self.workers, 1))
                if self.inline or not self._broken[shard]]

    def shard_health(self) -> List[dict]:
        """Per-shard liveness/backlog snapshot for the STATUS ``health``
        section."""
        with self._lock:
            return [
                {
                    "shard": i,
                    "alive": not self._broken[i],
                    "backlog": self._backlog[i],
                    "restarts": self._restarts[i],
                    "jobs_assigned": self.worker_stats[i].jobs_assigned,
                    "batches": self.worker_stats[i].batches,
                    "records": self.worker_stats[i].records,
                }
                for i in range(max(self.workers, 1))
            ]

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        # Drop any jobs never closed, so leaked detectors cannot linger in
        # this process (inline mode) and get inherited by later forks.
        with self._lock:
            leaked = list(self._assignments)
            self._assignments.clear()
        if self.inline:
            for job_id in leaked:
                _WORKER_JOBS.pop(job_id, None)
        for executor in self._executors:
            executor.shutdown(wait=True, cancel_futures=True)
        self._executors = []

    def __enter__(self) -> "ShardedDetectorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
