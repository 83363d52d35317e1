"""Framed streaming protocol of the race-detection service.

The wire format layers a capture onto a stream of length-prefixed
frames so many captures can be multiplexed over one connection and a
server can ingest several jobs concurrently:

* every frame is a 4-byte big-endian payload length followed by that
  many bytes of UTF-8 JSON — one object with a ``verb`` field;
* capture content travels in one shape: the ``OPEN`` frame carries the
  header line (the same JSON for both capture file formats), and each
  ``RECORDS`` frame carries exactly one base64-armored columnar batch
  (``batch``, a :func:`repro.columnar.encode_batch` payload) and its
  record count (``count``).  The client loads the capture — so a file
  that is no capture fails there, with the loader's own error — and
  the shard worker decodes each batch, so a corrupt frame fails its
  own job with a clean error instead of crashing the server.

Client → server verbs (six) and what answers each (``ERROR {message,
job_id?}`` can answer any of them)::

    open    {header_line, config?, resubmit_key?, trace?}
                                       -> accept {job_id}
    records {job_id, batch: str, count}-> ack {job_id, accepted, pending}
    close   {job_id}                   -> report {job_id, reports, stats,
                                                  degraded?, failure_log?,
                                                  spans?, flight?}
    sweep   {spec, schedules, seed, trace?}
                                       -> sweep-reply {result, spans?}
    fix     {spec, max_candidates, verify_schedules, seed, trace?}
                                       -> fix-reply {result, spans?}
    status  {sections?: [str]}         -> status-reply {stats?, metrics?,
                                                        health?, flight?}

``status`` is the one introspection verb.  ``sections`` names what the
reply should carry, out of :data:`STATUS_SECTIONS` — ``stats`` (the
service-wide snapshot), ``metrics`` (``{text, snapshot}``: the
Prometheus exposition with every shard's registry merged in),
``health`` (per-shard liveness, backlog and restart counts) and
``flight`` (the merged server + shard flight-recorder rings); absent
means all four.  A section is computed only when asked for, so a
``health`` probe never waits on a shard.

The optional ``trace`` field on ``open``, ``sweep`` and ``fix`` is a
serialized :class:`repro.obs.TraceContext`; when present, the server
and every shard worker the job touches record wire spans parented under
the client's context and ship them back on the result frame
(``spans``), so the client can merge one Chrome trace spanning all
three tiers.  ``flight`` carries a flight-recorder dump: automatically
on degraded reports, on demand via ``status``.

``ACK`` doubles as the backpressure signal: the server withholds it
while a job's pending-record count sits above the high-water mark, which
stalls a well-behaved client exactly like a full GPU queue stalls a
producing warp (§4.2).
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.races import (  # noqa: F401 - the payload codec, re-exported
    location_from_payload,
    location_to_payload,
    race_from_payload,
    race_sort_key,
    race_to_payload,
    reports_from_payload,
    reports_to_payload,
)
from ..core.races import (  # noqa: F401 - re-exported
    DetectorConfig,
    config_from_payload,
    config_to_payload,
)
from ..errors import ProtocolError, ReproError  # noqa: F401 - re-exported

#: Upper bound on one frame's payload; a length prefix beyond this is
#: treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")

# Client → server verbs.
OPEN = "open"
RECORDS = "records"
CLOSE = "close"
SWEEP = "sweep"
FIX = "fix"
STATUS = "status"

# Server → client verbs.
ACCEPT = "accept"
ACK = "ack"
REPORT = "report"
ERROR = "error"
STATUS_REPLY = "status-reply"

#: What a ``status`` request can ask for, in reply order.
STATUS_SECTIONS = ("stats", "metrics", "health", "flight")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message: dict) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload of {len(payload)} bytes exceeds "
                            f"the {MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("verb"), str):
        raise ProtocolError("frame payload must be an object with a 'verb'")
    return message


class FrameDecoder:
    """Incremental frame parser for byte streams of arbitrary chunking."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[dict]:
        """Absorb bytes; return every complete message they finish."""
        self._buffer.extend(data)
        messages: List[dict] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
                    "limit; stream is corrupt"
                )
            if len(self._buffer) < _LENGTH.size + length:
                return messages
            payload = bytes(self._buffer[_LENGTH.size:_LENGTH.size + length])
            del self._buffer[:_LENGTH.size + length]
            messages.append(decode_payload(payload))


# ----------------------------------------------------------------------
# Blocking-socket helpers (the client side)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < count:
        data = sock.recv(count - len(chunks))
        if not data:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.extend(data)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; returns None on a clean end-of-stream."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(payload)


# ----------------------------------------------------------------------
# Message constructors
# ----------------------------------------------------------------------
def open_frame(header_line: str, config: Optional[DetectorConfig] = None,
               resubmit_key: Optional[str] = None,
               trace: Optional[dict] = None) -> dict:
    """``OPEN``; ``resubmit_key`` makes the submission idempotent.

    A client that retries after a transient failure re-opens with the
    same key; the server supersedes any half-finished job under that key
    and replays the finished report from its cache when the first
    attempt actually completed — so a retry can never double-run a job.

    ``trace`` is an optional serialized ``TraceContext``; it asks the
    server (and the shard workers it dispatches to) to record spans for
    this job and ship them back on the REPORT frame.
    """
    message = {"verb": OPEN, "header_line": header_line}
    if config is not None:
        message["config"] = config_to_payload(config)
    if resubmit_key is not None:
        message["resubmit_key"] = resubmit_key
    if trace is not None:
        message["trace"] = trace
    return message


def batch_frame(job_id: str, encoded: str, count: int) -> dict:
    """``RECORDS``: one base64 columnar batch frame.

    ``count`` is the batch's record count, carried explicitly so the
    server's ACK/backpressure accounting stays exact without decoding
    the payload on the connection thread.
    """
    return {"verb": RECORDS, "job_id": job_id, "batch": encoded,
            "count": count}


def encode_batch_wire(payload: bytes) -> Tuple[str, int]:
    """Base64-armor one encoded batch frame; returns (text, records).

    The record count is peeked from the batch header
    (:func:`repro.columnar.batch_record_count`).
    """
    from ..columnar import batch_record_count

    return (base64.b64encode(payload).decode("ascii"),
            batch_record_count(payload))


def decode_batch_wire(encoded: str):
    """Decode a :func:`batch_frame` payload to a ColumnarBatch."""
    from ..columnar import decode_batch

    try:
        payload = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ReproError(
            f"corrupt batch frame: invalid base64 payload: {exc}") from exc
    return decode_batch(payload)


def close_frame(job_id: str) -> dict:
    return {"verb": CLOSE, "job_id": job_id}


def status_frame(sections: Sequence[str] = ()) -> dict:
    """``STATUS``; no ``sections`` asks for every one."""
    message: Dict[str, object] = {"verb": STATUS}
    if sections:
        message["sections"] = list(sections)
    return message


def status_reply_frame(sections: Dict[str, object]) -> dict:
    """The STATUS reply: one field per section asked for."""
    return {"verb": STATUS_REPLY, **sections}


def accept_frame(job_id: str) -> dict:
    return {"verb": ACCEPT, "job_id": job_id}


def ack_frame(job_id: str, accepted: int, pending: int) -> dict:
    return {"verb": ACK, "job_id": job_id, "accepted": accepted,
            "pending": pending}


def report_frame(job_id: str, reports: dict, stats: dict,
                 degraded: bool = False,
                 failure_log: Optional[List[str]] = None,
                 spans: Optional[List[dict]] = None,
                 flight: Optional[dict] = None) -> dict:
    """``REPORT``; ``degraded`` marks a best-effort result.

    A degraded report is the clean alternative to a hang: the job hit an
    unrecoverable runtime failure (shard crashed more than the requeue
    budget, worker hung past the watchdog), and the reply says so
    explicitly — ``failure_log`` carries one line per failure — instead
    of silently returning partial findings as if they were complete.

    ``spans`` piggybacks the server/shard wire spans of a traced job;
    ``flight`` attaches a merged flight-recorder dump (always present on
    degraded reports so the post-mortem travels with the failure).
    """
    frame: Dict[str, object] = {"verb": REPORT, "job_id": job_id,
                                "reports": reports, "stats": stats}
    if degraded:
        frame["degraded"] = True
        frame["failure_log"] = list(failure_log or [])
    if spans:
        frame["spans"] = list(spans)
    if flight is not None:
        frame["flight"] = flight
    return frame


def error_frame(message: str, job_id: Optional[str] = None) -> dict:
    frame: Dict[str, object] = {"verb": ERROR, "message": message}
    if job_id is not None:
        frame["job_id"] = job_id
    return frame


def job_frame(verb: str, spec: dict, fields: Dict[str, int],
              trace: Optional[dict] = None) -> dict:
    """A staged-job request (``SWEEP``, ``FIX``) over a launch spec.

    ``spec`` is a :meth:`repro.jobs.LaunchSpec.to_payload` payload and
    ``fields`` the integer fields of the job's request dataclass
    (``schedules``/``seed``; ``max_candidates``/``verify_schedules``/
    ``seed``).  The server places the job's stages on the sharded pool
    and merges deterministically, so the reply bytes depend only on
    ``(spec, fields)``.  ``trace`` optionally carries a serialized
    ``TraceContext``; span payloads ride back on the reply's ``spans``
    field (outside ``result``, so the result bytes stay a pure function
    of the request).
    """
    message = {"verb": verb, "spec": spec,
               **{name: int(value) for name, value in fields.items()}}
    if trace is not None:
        message["trace"] = trace
    return message


def job_reply_frame(verb: str, result: dict,
                    spans: Optional[List[dict]] = None) -> dict:
    """The ``<verb>-reply`` to a staged job: its serialized result payload
    (:class:`repro.predict.SweepResult`, :class:`repro.fix.FixResult`)."""
    frame: Dict[str, object] = {"verb": f"{verb}-reply", "result": result}
    if spans:
        frame["spans"] = list(spans)
    return frame
