"""The concurrent race-detection service.

Turns the offline capture/replay pipeline into a long-running service:
a framed streaming protocol carrying columnar record batches
(:mod:`~repro.service.protocol`), an asyncio ingest server with per-job
backpressure and failure isolation (:mod:`~repro.service.server`), a
job-affine sharded detector pool (:mod:`~repro.service.pipeline`), a
blocking client library (:mod:`~repro.service.client`), and a live
stats surface (:mod:`~repro.service.stats`).  ``python -m repro serve``
and ``python -m repro replay --socket`` are the CLI front doors.
"""

from .client import (
    BackoffPolicy,
    InjectedWireFault,
    JobResult,
    ServiceClient,
    ServiceConnectionError,
    ServiceJobError,
    submit_batches,
    submit_capture,
)
from .pipeline import ShardCrashError, ShardedDetectorPool
from .protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    recv_frame,
    reports_from_payload,
    reports_to_payload,
    send_frame,
)
from .server import (
    DEFAULT_HIGH_WATER,
    DEFAULT_JOB_TIMEOUT,
    DEFAULT_MAX_REQUEUES,
    RaceService,
    ServiceThread,
)
from .stats import (
    JobStats,
    ServiceStats,
    WorkerStats,
    metrics_registry_from_snapshot,
)
