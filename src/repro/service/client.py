"""Client library for the race-detection service.

A :class:`ServiceClient` speaks the framed protocol over a unix or TCP
socket: open a job with the capture header, stream the capture's
columnar batches (one batch in flight per ACK, so server-side
backpressure translates directly into client-side pacing), close, and
receive the job's :class:`~repro.core.races.DetectorReports`.

The capture is loaded here, by the loader every local front door uses
(:func:`~repro.runtime.replay.load_capture_path_batches`), so a
malformed capture fails with the same error whether it was going to run
in this process or on a service; what crosses the wire is one base64
:func:`~repro.columnar.encode_batch` payload per ``RECORDS`` frame,
framed as the capture itself is.

Transient failures — connection drops, truncated or garbled frames,
stream desync — are retried by :func:`submit_batches` under a
:class:`BackoffPolicy`, and every attempt reuses one client-generated
``resubmit_key`` so the server can recognize the retry: a job that
actually finished is answered from the server's report cache instead of
being run twice.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from ..columnar import ColumnarBatch, encode_batch
from ..core.races import DetectorReports
from ..core.races import DetectorConfig
from ..errors import ReproError
from ..faults import NULL_FAULTS, resolve_faults
from ..faults import sites as fault_sites
from ..obs import NULL_SPANS, SpanBuffer
from ..runtime.replay import capture_header_line, load_capture_path_batches
from ..trace.layout import GridLayout
from . import protocol

#: Default transparent retries in :func:`submit_batches`.
DEFAULT_MAX_RETRIES = 3


class ServiceJobError(ReproError):
    """The service rejected or failed a submitted job."""

    def __init__(self, message: str, job_id: Optional[str] = None) -> None:
        self.job_id = job_id
        super().__init__(message)


class ServiceConnectionError(ReproError, ConnectionError):
    """The service connection died mid-conversation (retryable)."""


class InjectedWireFault(ServiceConnectionError):
    """A client-side fault plan corrupted the outgoing stream.

    The injecting client cannot keep using a connection it just poisoned
    (frame sync is gone), so it closes the socket and raises this — a
    ``ConnectionError`` like any real network casualty, which is exactly
    how the retry layer classifies it.
    """


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with bounded multiplicative jitter.

    The pre-jitter ("ideal") delay for attempt *n* is
    ``min(cap, base * factor**n)`` — non-decreasing in *n* — and the
    realized delay lands in ``[ideal, ideal * (1 + jitter)]``.  The rng
    is seeded, so a retry schedule is reproducible.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1.0 or self.cap < self.base:
            raise ReproError(
                f"invalid backoff policy: base={self.base} factor={self.factor} "
                f"cap={self.cap}")
        if self.jitter < 0:
            raise ReproError(f"jitter must be >= 0, got {self.jitter}")

    def ideal(self, attempt: int) -> float:
        return min(self.cap, self.base * self.factor ** attempt)

    def delay(self, attempt: int, rng: random.Random) -> float:
        return self.ideal(attempt) * (1.0 + self.jitter * rng.random())

    def schedule(self, attempts: int) -> List[float]:
        """The first ``attempts`` delays under this policy's seed."""
        rng = random.Random(self.seed)
        return [self.delay(attempt, rng) for attempt in range(attempts)]


@dataclass
class JobResult:
    """Everything one submission returned."""

    job_id: str
    reports: DetectorReports
    #: Per-job stats snapshot from the server (records/sec, latency
    #: percentiles, peak queue depth); see ``repro.service.stats``.
    stats: dict = field(default_factory=dict)
    records_processed: int = 0
    #: True when the server gave up on the job after exhausting its
    #: requeue budget; ``reports`` is then explicitly empty and
    #: ``failure_log`` says why, one line per failure.
    degraded: bool = False
    failure_log: List[str] = field(default_factory=list)
    #: Retry bookkeeping filled in by :func:`submit_batches`.
    attempts: int = 1
    backoff_schedule: List[float] = field(default_factory=list)
    transient_failures: List[str] = field(default_factory=list)
    #: Distributed tracing: the wire-span payloads the server piggybacked
    #: on the REPORT frame (server + every shard the job touched).  When
    #: the submission ran with a client-side SpanBuffer these are also
    #: absorbed into it, ready for one merged Chrome trace.
    spans: List[dict] = field(default_factory=list)
    #: Flight-recorder dump attached by the server (degraded jobs).
    flight: Optional[dict] = None


class ServiceClient:
    """One connection to a running race-detection service."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 60.0,
        faults=NULL_FAULTS,
    ) -> None:
        if socket_path is None and port is None:
            raise ReproError("client needs a unix socket path or a TCP port")
        self._faults = resolve_faults(faults)
        if self._faults is not None:
            fault = self._faults.check(fault_sites.CLIENT_CONNECT)
            if fault is not None:
                raise ConnectionRefusedError("injected connect failure")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)

    # ------------------------------------------------------------------
    # Request/response plumbing
    # ------------------------------------------------------------------
    def _send_frame(self, frame: dict) -> None:
        data = protocol.encode_frame(frame)
        if self._faults is not None:
            fault = self._faults.check(fault_sites.CLIENT_SEND, len(data))
            if fault is not None:
                self._send_faulty(data, fault)
                return
        self._sock.sendall(data)

    def _send_faulty(self, data: bytes, fault) -> None:
        kind = fault.kind
        if kind == fault_sites.SLOW_WRITE:
            # The frame still arrives whole, just in a trickle — the
            # incremental decoder must cope with arbitrary chunking.
            half = max(1, len(data) // 2)
            self._sock.sendall(data[:half])
            time.sleep(float(fault.arg("seconds", 0.05)))
            self._sock.sendall(data[half:])
            return
        if kind == fault_sites.DUPLICATE_FRAME:
            # Sent twice: the spurious second reply desynchronizes the
            # request/reply cadence, surfacing as a ProtocolError later.
            self._sock.sendall(data)
            self._sock.sendall(data)
            return
        if kind == fault_sites.GARBAGE_FRAME:
            corrupted = bytearray(data)
            for i in range(4, len(corrupted)):
                corrupted[i] ^= 0x5A
            self._sock.sendall(bytes(corrupted))
            self.close()
            raise InjectedWireFault("injected garbage frame")
        if kind == fault_sites.TRUNCATE_FRAME:
            self._sock.sendall(data[: max(1, len(data) // 2)])
            self.close()
            raise InjectedWireFault("injected truncated frame")
        # connection-reset: drop the socket mid-conversation.
        self.close()
        raise InjectedWireFault("injected connection reset")

    def _request(self, frame: dict) -> dict:
        self._send_frame(frame)
        reply = protocol.recv_frame(self._sock)
        if reply is None:
            raise ServiceConnectionError("service closed the connection")
        return reply

    @staticmethod
    def _raise_on_error(reply: dict) -> dict:
        if reply.get("verb") == protocol.ERROR:
            raise ServiceJobError(reply.get("message", "service error"),
                                  reply.get("job_id"))
        return reply

    def _expect(self, reply: dict, verb: str) -> dict:
        self._raise_on_error(reply)
        if reply.get("verb") != verb:
            raise protocol.ProtocolError(
                f"expected {verb!r} from service, got {reply.get('verb')!r}")
        return reply

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        header_line: str,
        batches: Iterable[ColumnarBatch],
        config: Optional[DetectorConfig] = None,
        resubmit_key: Optional[str] = None,
        trace: SpanBuffer = NULL_SPANS,
    ) -> JobResult:
        """Stream one capture as one job: OPEN, one RECORDS frame per
        batch (each sent on the previous one's ACK), CLOSE.

        ``trace`` is the client-side :class:`SpanBuffer`; when it is
        enabled, the whole submission is recorded as a ``submit`` span
        whose child context travels on the OPEN frame, and the server's
        piggybacked spans are absorbed back into the buffer — so
        ``trace.collected_payloads()`` afterwards merges into one
        Chrome trace spanning client, server, and every shard.
        """
        with trace.span("submit") as span:
            reply = self._expect(
                self._request(protocol.open_frame(
                    header_line, config, resubmit_key=resubmit_key,
                    trace=(trace.context.child(span).to_payload()
                           if trace.enabled else None))),
                protocol.ACCEPT,
            )
            job_id = reply["job_id"]
            for batch in batches:
                self._expect(
                    self._request(protocol.batch_frame(
                        job_id, *protocol.encode_batch_wire(
                            encode_batch(batch)))),
                    protocol.ACK)
            report = self._expect(self._request(protocol.close_frame(job_id)),
                                  protocol.REPORT)
        payload = report.get("reports", {})
        result = JobResult(
            job_id=job_id,
            reports=protocol.reports_from_payload(payload),
            stats=report.get("stats", {}),
            records_processed=payload.get("records_processed", 0),
            degraded=bool(report.get("degraded", False)),
            failure_log=list(report.get("failure_log", [])),
            spans=list(report.get("spans", [])),
            flight=report.get("flight"),
        )
        trace.absorb(result.spans)
        return result

    # ------------------------------------------------------------------
    # Staged jobs: predictive sweeps and race repair
    # ------------------------------------------------------------------
    def run_job(self, verb: str, spec: dict, fields: dict,
                trace: SpanBuffer = NULL_SPANS) -> dict:
        """Run a staged job (``SWEEP``, ``FIX``) server-side.

        ``spec`` is a serialized :class:`repro.predict.LaunchSpec`
        payload and ``fields`` the job's integer request fields; the
        reply is the job's serialized result payload, byte-identical to
        what the local driver produces for the same request.  With an
        enabled ``trace``, the request is recorded as a
        ``<verb>-request`` span and the server/shard spans piggybacked
        on the reply are absorbed into the buffer.
        """
        with trace.span(f"{verb}-request", **fields) as request_span:
            payload = (trace.context.child(request_span).to_payload()
                       if trace.enabled else None)
            reply = self._expect(
                self._request(protocol.job_frame(verb, spec, fields,
                                                 trace=payload)),
                f"{verb}-reply")
        trace.absorb(reply.get("spans", []))
        return reply.get("result", {})

    def sweep(self, spec: dict, schedules: int, seed: int,
              trace: SpanBuffer = NULL_SPANS) -> dict:
        """The ``SWEEP`` verb: a :class:`repro.predict.SweepResult` payload."""
        return self.run_job(protocol.SWEEP, spec,
                            {"schedules": schedules, "seed": seed}, trace)

    def fix(self, spec: dict, max_candidates: int, verify_schedules: int,
            seed: int, trace: SpanBuffer = NULL_SPANS) -> dict:
        """The ``FIX`` verb: a :class:`repro.fix.FixResult` payload."""
        return self.run_job(protocol.FIX, spec,
                            {"max_candidates": max_candidates,
                             "verify_schedules": verify_schedules,
                             "seed": seed}, trace)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self, *sections: str) -> dict:
        """The ``STATUS`` verb: the sections asked for
        (:data:`protocol.STATUS_SECTIONS`; none named means all) in one
        request — ``stats`` (the service-wide snapshot), ``metrics``
        (``{"text": <Prometheus exposition>, "snapshot": <dict>}``),
        ``health`` (per-shard liveness/backlog), ``flight`` (the merged
        flight-recorder rings)."""
        reply = self._expect(self._request(protocol.status_frame(sections)),
                             protocol.STATUS_REPLY)
        return {name: reply[name] for name in protocol.STATUS_SECTIONS
                if name in reply}

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def submit_batches(
    layout: GridLayout,
    kernel: str,
    batches: Sequence[ColumnarBatch],
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    config: Optional[DetectorConfig] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff: Optional[BackoffPolicy] = None,
    timeout: float = 60.0,
    faults=NULL_FAULTS,
    resubmit_key: Optional[str] = None,
    sleep: Callable[[float], None] = time.sleep,
    trace: SpanBuffer = NULL_SPANS,
) -> JobResult:
    """Connect, submit one loaded capture, disconnect — retrying transients.

    Transient failures (connection errors including injected wire
    faults, and protocol desync) are retried up to ``max_retries`` times
    under ``backoff``; deterministic job failures
    (:class:`ServiceJobError`) are not, because resubmitting a bad
    capture reproduces them.  Every attempt carries the same
    ``resubmit_key``, making the whole retry loop idempotent
    server-side.  ``sleep`` is injectable so tests retry instantly.

    With ``trace``, each transient failure and backoff delay is stamped
    as an instant on the client buffer, so the merged trace shows the
    retry history alongside the server-side spans of the attempt that
    finally succeeded.
    """
    policy = backoff if backoff is not None else BackoffPolicy()
    rng = random.Random(policy.seed)
    key = resubmit_key if resubmit_key is not None else f"sub-{uuid.uuid4().hex}"
    injector = resolve_faults(faults)
    header_line = capture_header_line(layout, kernel)
    schedule: List[float] = []
    failures: List[str] = []
    attempt = 0
    while True:
        try:
            with ServiceClient(socket_path=socket_path, host=host, port=port,
                               timeout=timeout, faults=injector) as client:
                result = client.submit(header_line, batches, config=config,
                                       resubmit_key=key, trace=trace)
            result.attempts = attempt + 1
            result.backoff_schedule = schedule
            result.transient_failures = failures
            return result
        except (OSError, protocol.ProtocolError) as exc:
            failures.append(f"attempt {attempt + 1}: {exc}")
            trace.instant("transient-failure", attempt=attempt + 1,
                          error=str(exc))
            if attempt >= max_retries:
                raise ServiceJobError(
                    f"submission failed after {attempt + 1} attempt(s): {exc}"
                ) from exc
            delay = policy.delay(attempt, rng)
            schedule.append(delay)
            sleep(delay)
            attempt += 1


def submit_capture(path: str, faults=NULL_FAULTS, **options) -> JobResult:
    """Load the capture at ``path`` and :func:`submit_batches` it (whose
    keyword options these are).

    The load happens once, before any connection and outside the retry
    loop: a file that is no capture fails here with the loader's own
    error, exactly as a local ``repro replay`` of it would.  One
    ``faults`` feeds the loader's ``replay.record_line`` site and the
    client's wire sites.
    """
    injector = resolve_faults(faults)
    layout, kernel, batches, _fmt = load_capture_path_batches(
        path, faults=injector)
    return submit_batches(layout, kernel, batches, faults=injector, **options)
