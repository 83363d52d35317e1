"""The race-detection service: an asyncio streaming-ingest server.

One long-running process accepts capture streams from many concurrent
clients (unix socket and/or TCP), fans each job out to the sharded
detector pool, and answers with the job's race reports.  Failure
isolation is per job: a malformed frame, a garbage capture, or a client
disconnect fails (or aborts) *that* job and leaves every other job — and
the server itself — running.

Backpressure mirrors §4.2's producer stall: while a job's pending-record
count sits above the high-water mark the server withholds the ``ACK``
for the batch that crossed it, so a well-behaved client (ours sends one
batch per ACK) stops producing until workers drain the backlog below the
low-water mark.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.races import DetectorConfig
from ..errors import ReproError
from ..faults import FaultPlan
from ..jobs import STAGED_JOB_MODULES, staged_job
from ..obs import (
    NULL_SPANS,
    FlightRecorder,
    SpanBuffer,
    merge_flight_dumps,
)
from ..runtime.replay import read_header
from ..trace.layout import GridLayout
from . import protocol
from .pipeline import ShardCrashError, ShardedDetectorPool
from .stats import (
    FINISHED_JOBS_RETAINED,
    JobStats,
    ServiceStats,
    metrics_registry_from_snapshot,
)

#: Default pending-record high-water mark per job.
DEFAULT_HIGH_WATER = 8192

#: Default per-batch (and open/close) watchdog timeout, seconds.
DEFAULT_JOB_TIMEOUT = 30.0

#: Default bound on requeue attempts before a job degrades.
DEFAULT_MAX_REQUEUES = 2

#: Report payload served for degraded jobs: explicitly empty findings,
#: never partial findings dressed up as complete ones.
_EMPTY_REPORT_PAYLOAD = {
    "races": [],
    "barrier_divergences": [],
    "filtered_same_value": 0,
    "records_processed": 0,
}


class ShardLost(Exception):
    """A shard call hung past the watchdog or its shard died; raised once
    the shard is respawned and every capture job it held requeued."""


def _request_spans(message: dict) -> SpanBuffer:
    """The server-side recorder a request's optional ``trace`` context
    asks for; a malformed context fails the request."""
    try:
        return SpanBuffer.for_request("server", message.get("trace"))
    except ValueError as exc:
        raise ReproError(f"bad trace context: {exc}") from exc


@dataclass
class _Job:
    """Server-side state of one in-flight capture submission."""

    job_id: str
    stats: JobStats
    layout: Optional[GridLayout] = None
    config: Optional[DetectorConfig] = None
    resubmit_key: Optional[str] = None
    #: Finished report replayed for an idempotent resubmission; when
    #: set, the job never touches the pool.
    cached: Optional[dict] = None
    #: Every ``(encoded batch, record count)`` frame accepted so far,
    #: retained in arrival order so a requeued job can be replayed from
    #: scratch on a surviving shard.
    frames: List[Tuple[str, int]] = field(default_factory=list)
    #: This epoch's batch futures not yet settled: CLOSE waits for them,
    #: so a batch that fails the job fails it before the report.
    in_flight: Set[object] = field(default_factory=set)
    drained: asyncio.Event = field(default_factory=asyncio.Event)
    failed: bool = False
    error: str = ""
    #: Bumped on every recovery; in-flight batch watchers from before the
    #: failure compare epochs and stand down instead of double-recovering.
    epoch: int = 0
    requeues: int = 0
    recovering: bool = False
    degraded: bool = False
    failure_log: List[str] = field(default_factory=list)
    #: Tracing: the client's serialized TraceContext (also forwarded to
    #: the worker on open/requeue) and the server-side span buffer
    #: recording this job's server spans + recovery instants.
    trace_payload: Optional[dict] = None
    spans: SpanBuffer = NULL_SPANS

    def fail(self, message: str) -> None:
        if not self.failed:
            self.failed = True
            self.error = message
        self.drained.set()

    def settled(self, future) -> None:
        self.in_flight.discard(future)
        if not self.in_flight:
            self.drained.set()

    def degrade(self, message: str) -> None:
        self.failure_log.append(message)
        self.degraded = True
        self.recovering = False
        self.drained.set()


class RaceService:
    """Accepts framed capture streams and serves race reports."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        workers: int = 2,
        high_water: int = DEFAULT_HIGH_WATER,
        pool: Optional[ShardedDetectorPool] = None,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if socket_path is None and port is None:
            raise ReproError("service needs a unix socket path and/or a TCP port")
        if high_water < 1:
            raise ReproError(f"high-water mark must be positive, got {high_water}")
        if job_timeout <= 0:
            raise ReproError(f"job timeout must be positive, got {job_timeout}")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        #: Actual TCP port after binding (useful with ``port=0``).
        self.bound_port: Optional[int] = None
        self.high_water = high_water
        self.low_water = max(1, high_water // 2)
        self.job_timeout = job_timeout
        self.max_requeues = max_requeues
        self.pool = (
            pool
            if pool is not None
            else ShardedDetectorPool(workers, fault_plan=fault_plan)
        )
        self._owns_pool = pool is None
        self.stats = ServiceStats()
        self._jobs: Dict[str, _Job] = {}
        self._next_job_id = 1
        self._servers = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._watch_tasks: Set[asyncio.Task] = set()
        #: Finished reports by resubmit key (bounded, LRU-evicted) plus
        #: the in-flight job currently holding each key.
        self._finished_by_key: "OrderedDict[str, dict]" = OrderedDict()
        self._key_to_job: Dict[str, str] = {}
        self.requeues_total = 0
        self.watchdog_timeouts_total = 0
        #: Always-on bounded ring of lifecycle events; merged with the
        #: shard rings on degraded reports and by STATUS ``flight``.
        self.flight = FlightRecorder("server")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)
            self._servers.append(
                await asyncio.start_unix_server(self._handle_client,
                                                path=self.socket_path)
            )
        if self.port is not None:
            server = await asyncio.start_server(self._handle_client,
                                                self.host, self.port)
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        for job_id in list(self._jobs):
            self._abort_job(job_id, "service shutting down")
        for task in list(self._watch_tasks):
            task.cancel()
        if self._watch_tasks:
            await asyncio.gather(*list(self._watch_tasks), return_exceptions=True)
        self._watch_tasks.clear()
        # Nudge live connections to completion instead of cancelling their
        # tasks — a cancelled stream handler logs noisy tracebacks.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._owns_pool:
            self.pool.shutdown()
        if self.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)

    def run_forever(self) -> None:
        """Blocking entry point for ``python -m repro serve``."""

        async def _main() -> None:
            await self.start()
            try:
                await asyncio.Event().wait()
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_frame(message))
        await writer.drain()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn_jobs: Set[str] = set()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                length = int.from_bytes(prefix, "big")
                if length > protocol.MAX_FRAME_BYTES:
                    # A bogus length prefix means frame sync is lost; the
                    # connection is unrecoverable but its jobs fail cleanly.
                    await self._send(writer, protocol.error_frame(
                        f"frame length {length} exceeds limit; closing connection"))
                    break
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    message = protocol.decode_payload(payload)
                except protocol.ProtocolError as exc:
                    # Framing is still intact: reject this frame only.
                    self.flight.record("protocol-error", error=str(exc))
                    await self._send(writer, protocol.error_frame(str(exc)))
                    continue
                try:
                    await self._dispatch(message, conn_jobs, writer)
                except ConnectionError:
                    break
                except ReproError as exc:
                    await self._send(writer, protocol.error_frame(
                        str(exc), message.get("job_id")))
                except Exception as exc:  # keep other jobs alive, always
                    await self._send(writer, protocol.error_frame(
                        f"internal error: {exc}", message.get("job_id")))
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            for job_id in conn_jobs:
                if job_id in self._jobs:
                    self._abort_job(job_id, "client disconnected")
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, message: dict, conn_jobs: Set[str],
                        writer: asyncio.StreamWriter) -> None:
        verb = message["verb"]
        if verb == protocol.OPEN:
            await self._handle_open(message, conn_jobs, writer)
        elif verb == protocol.RECORDS:
            await self._handle_records(message, conn_jobs, writer)
        elif verb == protocol.CLOSE:
            await self._handle_close(message, conn_jobs, writer)
        elif verb in STAGED_JOB_MODULES:
            await self._handle_staged_job(message, writer)
        elif verb == protocol.STATUS:
            await self._send(writer, protocol.status_reply_frame(
                await self._status(message.get("sections"))))
        else:
            await self._send(writer, protocol.error_frame(
                f"unknown verb {verb!r}"))

    async def _gather_shards(self, section: str, timeout: float = 5.0):
        """Every live shard's share of a STATUS section (``metrics`` or
        ``flight``), skipping casualties."""
        results = []
        for shard, future in self.pool.status_futures(section):
            try:
                value = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=timeout)
            except Exception:
                continue
            results.append((shard, value))
        return results

    async def _merged_flight(self) -> dict:
        """The server's flight ring merged with every live shard's."""
        dumps: List[Optional[dict]] = [self.flight.dump()]
        dumps.extend(dump for _shard, dump
                     in await self._gather_shards("flight"))
        return merge_flight_dumps(dumps)

    async def _merged_metrics(self) -> dict:
        """The service registry with every live shard's always-on
        registry merged in under a ``shard`` label; a dead or slow shard
        is skipped — the answer is whatever the fleet can report now."""
        registry = metrics_registry_from_snapshot(
            self.stats.snapshot(self.pool.worker_stats))
        for shard, snapshot in await self._gather_shards("metrics"):
            registry.merge_snapshot(snapshot, {"shard": str(shard)})
        return {"text": registry.render_prometheus(),
                "snapshot": registry.snapshot()}

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def _status(self, sections) -> Dict[str, object]:
        """The STATUS reply's fields: each section asked for (all four
        when none is named), and nothing computed for the others."""
        if sections is None:
            sections = protocol.STATUS_SECTIONS
        if not isinstance(sections, (list, tuple)) or not all(
                name in protocol.STATUS_SECTIONS for name in sections):
            raise ReproError(
                "STATUS sections must be a list drawn from "
                f"{', '.join(protocol.STATUS_SECTIONS)}; got {sections!r}")
        reply: Dict[str, object] = {}
        if "stats" in sections:
            reply["stats"] = self.stats.snapshot(self.pool.worker_stats)
        if "metrics" in sections:
            reply["metrics"] = await self._merged_metrics()
        if "health" in sections:
            reply["health"] = self.health_snapshot()
        if "flight" in sections:
            reply["flight"] = await self._merged_flight()
        return reply

    def health_snapshot(self) -> dict:
        """The ``health`` section: shard liveness plus recovery totals."""
        return {
            "shards": self.pool.shard_health(),
            "jobs_open": sum(
                1 for j in self.stats.jobs.values() if j.state == "open"),
            "jobs_degraded": self.stats.jobs_degraded,
            "requeues_total": self.requeues_total,
            "watchdog_timeouts_total": self.watchdog_timeouts_total,
        }

    async def _handle_open(self, message: dict, conn_jobs: Set[str],
                           writer: asyncio.StreamWriter) -> None:
        try:
            layout, kernel = read_header(str(message.get("header_line", "")))
            config_payload = message.get("config")
            config = (protocol.config_from_payload(config_payload)
                      if config_payload else None)
        except ReproError as exc:
            await self._send(writer, protocol.error_frame(str(exc)))
            return
        spans = _request_spans(message)
        trace_payload = spans.context.to_payload() if spans.enabled else None
        resubmit_key = message.get("resubmit_key")
        resubmit_key = resubmit_key if isinstance(resubmit_key, str) and resubmit_key else None
        if resubmit_key is not None:
            cached = self._finished_by_key.get(resubmit_key)
            if cached is not None:
                # The first attempt finished; replay its report instead
                # of running the capture a second time.
                job_id = f"job-{self._next_job_id}"
                self._next_job_id += 1
                job = _Job(job_id=job_id,
                           stats=self.stats.open_job(job_id, kernel),
                           resubmit_key=resubmit_key, cached=cached)
                self._jobs[job_id] = job
                conn_jobs.add(job_id)
                await self._send(writer, protocol.accept_frame(job_id))
                return
            stale = self._key_to_job.pop(resubmit_key, None)
            if stale is not None and stale in self._jobs:
                # A half-finished earlier attempt: the retry supersedes it.
                self._abort_job(
                    stale, f"superseded by resubmission {resubmit_key!r}")
        job_id = f"job-{self._next_job_id}"
        self._next_job_id += 1
        self.flight.record("job-open", job=job_id, kernel=kernel,
                           traced=spans.enabled)
        # The job exists before its open resolves, so a shard lost under
        # the open requeues it like any other job the shard held.
        self._jobs[job_id] = _Job(
            job_id=job_id, stats=self.stats.open_job(job_id, kernel),
            layout=layout, config=config, resubmit_key=resubmit_key,
            trace_payload=trace_payload, spans=spans)
        if resubmit_key is not None:
            self._key_to_job[resubmit_key] = job_id
        with spans.span("server-open", job=job_id, kernel=kernel):
            try:
                await self._shard_call(
                    self.pool.open_job(job_id, layout, config, trace_payload),
                    spans, job=job_id)
            except ShardLost:
                pass  # requeued, with no frames to replay yet
            except Exception as exc:
                self._abort_job(job_id, f"could not open job: {exc}")
                raise ReproError(f"could not open job: {exc}") from exc
        conn_jobs.add(job_id)
        await self._send(writer, protocol.accept_frame(job_id))

    def _job_for(self, message: dict, conn_jobs: Set[str]) -> _Job:
        job_id = message.get("job_id")
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ReproError(f"unknown job {job_id!r}")
        if job_id not in conn_jobs:
            raise ReproError(f"job {job_id!r} belongs to another connection")
        return job

    async def _handle_records(self, message: dict, conn_jobs: Set[str],
                              writer: asyncio.StreamWriter) -> None:
        job = self._job_for(message, conn_jobs)
        if job.failed:
            await self._send(writer, protocol.error_frame(job.error, job.job_id))
            return
        # The one wire item: a base64 columnar batch and its record
        # count, forwarded to the shard undecoded.
        encoded, count = message.get("batch"), message.get("count")
        if not isinstance(encoded, str) or type(count) is not int or count < 0:
            raise ReproError("RECORDS frame needs a batch string and a "
                             "non-negative integer record count")
        if job.cached is not None or job.degraded:
            # Replayed or degraded jobs eat the stream without forwarding
            # it: the report is already decided.
            await self._send(writer, protocol.ack_frame(
                job.job_id, count, 0))
            return
        # Backpressure: hold the ACK while this job is over its high-water
        # mark (or mid-recovery).  The connection reads no further frames
        # meanwhile, so the client (and eventually the kernel socket
        # buffer) stalls.
        while ((job.stats.pending_records > self.high_water or job.recovering)
               and not job.failed and not job.degraded):
            job.drained.clear()
            await job.drained.wait()
        if job.failed:
            await self._send(writer, protocol.error_frame(job.error, job.job_id))
            return
        if job.degraded:
            await self._send(writer, protocol.ack_frame(
                job.job_id, count, 0))
            return
        job.stats.batch_submitted(count)
        job.frames.append((encoded, count))
        future = self.pool.submit_batch(job.job_id, [(encoded, count)])
        self._spawn_watch(job, future)
        await self._send(writer, protocol.ack_frame(
            job.job_id, count, job.stats.pending_records))

    # ------------------------------------------------------------------
    # Shard calls: watchdog, respawn, requeue
    # ------------------------------------------------------------------
    def _spawn(self, coro) -> asyncio.Task:
        task = self._loop.create_task(coro)
        self._watch_tasks.add(task)
        task.add_done_callback(self._watch_tasks.discard)
        return task

    async def _shard_call(self, future, spans: SpanBuffer,
                          timeout: Optional[float] = None, **where):
        """Await one call on a shard: the only place the service waits
        on shard work (STATUS gathering aside, which must not respawn).

        A call that outlives the watchdog (``timeout``, default the job
        timeout) or whose shard died is a loss, recorded and raised as
        :class:`ShardLost`.  Only the first casualty of an executor
        generation respawns it, and that one respawn requeues every
        capture job the shard held.  Other failures (a capture's own
        ``ReproError``) propagate unchanged.  A payload's piggybacked
        worker ``spans`` come off here, into ``spans``, so result bytes
        stay a pure function of the request.
        """
        timeout = timeout or self.job_timeout
        try:
            result = await asyncio.wait_for(asyncio.wrap_future(future),
                                            timeout=timeout)
        except asyncio.TimeoutError:
            if self.pool.is_current(future):
                self.watchdog_timeouts_total += 1
                event = "watchdog-timeout"
                reason = f"worker hung: call exceeded the {timeout:g}s watchdog"
            else:  # its executor was replaced while the call waited
                event, reason = "shard-crash", "shard crashed: respawned"
        except (BrokenExecutor, ShardCrashError) as exc:
            event = "shard-crash"
            reason = f"shard crashed: {str(exc) or type(exc).__name__}"
        else:
            if isinstance(result, dict):
                spans.absorb(result.pop("spans", None))
            return result
        self.flight.record(event, **where, error=reason)
        spans.instant(event, **where)
        if self.pool.respawn_shard(future.shard, future.generation):
            self.flight.record("shard-respawn", shard=future.shard)
            self._requeue_jobs_on(future.shard, reason)
        raise ShardLost(reason)

    def _requeue_jobs_on(self, shard: int, reason: str) -> None:
        """Recover every open capture job the respawned ``shard`` held:
        bump its epoch (its batch watchers stand down), then requeue it
        within its own budget and replay its retained frames."""
        for job_id in self.pool.jobs_on(shard):
            job = self._jobs.get(job_id)
            if job is None or job.failed or job.degraded:
                continue
            job.epoch += 1
            job.in_flight.clear()
            job.failure_log.append(reason)
            if job.requeues >= self.max_requeues:
                self.flight.record("job-degraded", job=job_id,
                                   reason="requeue budget exhausted")
                job.spans.instant("job-degraded", job=job_id)
                job.degrade(f"requeue budget of {self.max_requeues} exhausted")
                continue
            job.requeues += 1
            self.requeues_total += 1
            self.flight.record("job-requeue", job=job_id,
                               attempt=job.requeues, reason=reason)
            job.spans.instant("job-requeue", job=job_id, attempt=job.requeues)
            job.recovering = True
            self._spawn(self._requeue(job, job.epoch))

    async def _requeue(self, job: _Job, epoch: int) -> None:
        """Reopen ``job`` on a live shard and replay its retained frames;
        a later loss that claims the job (a new epoch) supersedes this."""
        try:
            await self._shard_call(
                self.pool.requeue_job(job.job_id, job.layout, job.config,
                                      job.trace_payload),
                job.spans, job=job.job_id)
            if job.epoch == epoch and not job.failed:
                job.stats.pending_records = sum(n for _e, n in job.frames)
                if job.frames:
                    self._spawn_watch(
                        job, self.pool.submit_batch(job.job_id, job.frames),
                        replay=True)
        except Exception as exc:
            if job.epoch == epoch and not job.failed:
                self.flight.record("job-degraded", job=job.job_id,
                                   reason=f"requeue failed: {exc}")
                job.degrade(f"requeue failed: {exc}")
        finally:
            if job.epoch == epoch:
                job.recovering = False
                job.drained.set()

    def _spawn_watch(self, job: _Job, future, replay: bool = False) -> None:
        job.in_flight.add(future)
        task = self._spawn(self._watch_batch(job, future, job.epoch, replay))
        task.add_done_callback(lambda _task: job.settled(future))

    async def _watch_batch(self, job: _Job, future, epoch: int,
                           replay: bool) -> None:
        try:
            count, busy = await self._shard_call(future, job.spans,
                                                 job=job.job_id)
        except ShardLost:
            return  # the respawn requeued the job under a new epoch
        except Exception as exc:
            # Deterministic job-level failure (garbage record, poison):
            # requeueing would only reproduce it, so fail the job cleanly.
            if job.epoch == epoch:
                job.fail(str(exc) if isinstance(exc, ReproError)
                         else f"batch failed: {exc}")
            return
        if job.epoch != epoch:
            return
        if replay:
            # The requeue replay: one batch covering every retained
            # frame.  Pending was reset when recovery began.
            job.stats.pending_records = 0
            job.stats.busy_seconds += busy
        else:
            job.stats.batch_done(count, busy)
        if job.stats.pending_records <= self.low_water:
            job.drained.set()

    # ------------------------------------------------------------------
    # Close + idempotency cache
    # ------------------------------------------------------------------
    def _remember(self, key: Optional[str], frame: dict) -> None:
        if key is None:
            return
        self._finished_by_key[key] = {
            "reports": frame["reports"],
            "stats": frame["stats"],
            "degraded": bool(frame.get("degraded", False)),
            "failure_log": list(frame.get("failure_log", [])),
        }
        self._finished_by_key.move_to_end(key)
        while len(self._finished_by_key) > FINISHED_JOBS_RETAINED:
            self._finished_by_key.popitem(last=False)

    async def _handle_close(self, message: dict, conn_jobs: Set[str],
                            writer: asyncio.StreamWriter) -> None:
        job = self._job_for(message, conn_jobs)
        if job.cached is not None:
            conn_jobs.discard(job.job_id)
            del self._jobs[job.job_id]
            self.stats.finish_job(job.job_id, "done")
            cached = job.cached
            await self._send(writer, protocol.report_frame(
                job.job_id, cached["reports"], cached["stats"],
                degraded=cached.get("degraded", False),
                failure_log=cached.get("failure_log") or None))
            return
        while (job.in_flight or job.recovering) \
                and not job.failed and not job.degraded:
            job.drained.clear()
            await job.drained.wait()
        conn_jobs.discard(job.job_id)
        del self._jobs[job.job_id]
        if job.resubmit_key is not None \
                and self._key_to_job.get(job.resubmit_key) == job.job_id:
            del self._key_to_job[job.resubmit_key]
        if job.failed:
            self.stats.finish_job(job.job_id, "failed", job.error)
            await asyncio.wrap_future(self.pool.discard_job(job.job_id))
            await self._send(writer, protocol.error_frame(job.error, job.job_id))
            return
        if job.degraded:
            with contextlib.suppress(Exception):
                await asyncio.wrap_future(self.pool.discard_job(job.job_id))
            payload = dict(_EMPTY_REPORT_PAYLOAD)
        else:
            with job.spans.span("server-close", job=job.job_id):
                try:
                    payload = await self._shard_call(
                        self.pool.close_job(job.job_id), job.spans,
                        job=job.job_id)
                except Exception as exc:
                    # A close that crashes or hangs still answers: degraded.
                    job.degraded = True
                    job.failure_log.append(f"close failed: {exc}")
                    payload = dict(_EMPTY_REPORT_PAYLOAD)
        state = "degraded" if job.degraded else "done"
        self.flight.record("job-close", job=job.job_id, state=state)
        self.stats.finish_job(job.job_id, state,
                              "; ".join(job.failure_log) if job.degraded else "")
        # Degraded reports carry the post-mortem with them: the merged
        # server + shard flight rings.
        flight = await self._merged_flight() if job.degraded else None
        frame = protocol.report_frame(
            job.job_id, payload, job.stats.snapshot(),
            degraded=job.degraded,
            failure_log=job.failure_log if job.degraded else None,
            spans=job.spans.collected_payloads(), flight=flight)
        self._remember(job.resubmit_key, frame)
        await self._send(writer, frame)

    async def _handle_staged_job(self, message: dict,
                                 writer: asyncio.StreamWriter) -> None:
        """Run one staged job (SWEEP, FIX) across the worker pool.

        The job's definition (:class:`repro.jobs.StagedJob`) says what
        the stages are; this handler only places them: plan and finalize
        on shard 0, item ``index`` on shard ``index % shards``.  An item
        that crashes or times out is folded into the merge as the job's
        ``failed_item`` payload at its index, so partial casualties
        degrade the result deterministically instead of failing it.  The
        merged result is byte-identical to the local driver's for the
        same request.
        """
        job = staged_job(message["verb"])
        try:
            request = job.parse(message)
        except ReproError as exc:
            await self._send(writer, protocol.error_frame(str(exc)))
            return
        spans = _request_spans(message)
        self.flight.record(job.name, traced=spans.enabled,
                           **job.describe(request))
        # A stage is whole simulated kernel executions, not one record
        # batch; scale the watchdog with the work it may run.
        timeout = self.job_timeout * max(1, job.watchdog_scale(request))
        shards = self.pool.shards

        def failed(stage: str, exc: Exception, **where) -> str:
            reason = str(exc) or type(exc).__name__
            event = f"{job.name}-{stage}-failed"
            self.flight.record(event, **where, error=reason)
            spans.instant(event, **where)
            return reason

        with spans.span(job.name, **job.describe(request)) as job_span:
            # Each stage parents under the server's job span (a fan-out
            # item also links back to it), which itself parents under
            # the client's request span.
            stage_trace = (spans.context.child(job_span).to_payload()
                           if spans.enabled else None)

            def submit(shard: int, stage: str, plan: dict, arg=None):
                return self.pool.submit_stage(shard, job.name, stage, request,
                                              plan, arg, stage_trace)

            def run(future, stage: str, **where):
                return self._shard_call(future, spans, timeout,
                                        stage=f"{job.name}-{stage}", **where)

            plan: dict = {}
            if job.plan is not None:
                try:
                    plan = await run(submit(0, "plan", plan), "plan")
                except Exception as exc:
                    await self._send(writer, protocol.error_frame(
                        f"{job.name} plan failed: {failed('plan', exc)}"))
                    return
            futures = [submit(index % shards, job.item_stage, plan, index)
                       for index in range(job.count(request, plan))]
            items: List[dict] = []
            for index, future in enumerate(futures):
                try:
                    items.append(await run(future, job.item_stage,
                                           index=index))
                except Exception as exc:
                    items.append(job.failed_item(
                        request, plan, index,
                        failed(job.item_stage, exc, index=index)))
            try:
                result = await run(submit(0, "finalize", plan, items),
                                   "finalize")
            except Exception as exc:
                await self._send(writer, protocol.error_frame(
                    f"{job.name} finalize failed: {failed('finalize', exc)}"))
                return
        await self._send(writer, protocol.job_reply_frame(
            job.name, result, spans=spans.collected_payloads()))

    def _abort_job(self, job_id: str, reason: str) -> None:
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        self.flight.record("job-abort", job=job_id, reason=reason)
        if job.resubmit_key is not None \
                and self._key_to_job.get(job.resubmit_key) == job_id:
            del self._key_to_job[job.resubmit_key]
        job.fail(reason)
        self.stats.finish_job(job_id, "aborted", reason)
        if job.cached is None:
            self.pool.discard_job(job_id)


class ServiceThread:
    """Run a :class:`RaceService` on a background thread (tests, tools).

    Usage::

        with ServiceThread(RaceService(socket_path=path)) as service:
            ...  # submit captures from this (or any) thread
    """

    def __init__(self, service: RaceService) -> None:
        self.service = service
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self.service.stop()

        asyncio.run(_main())

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("service failed to start within 30s")
        if self._startup_error is not None:
            raise ReproError(f"service failed to start: {self._startup_error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
