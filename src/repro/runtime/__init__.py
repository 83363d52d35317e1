"""BARRACUDA runtime: queues, host detector, end-to-end sessions."""

from ..events import RECORD_BYTES, LogRecord, RecordKind, record_to_ops
from .host import HostDetector
from .latent import LatentRaceReport, WarpSizeFinding, find_latent_races
from .queue import DEFAULT_CAPACITY, LogQueue, QueueSet, QueueStats
from .replay import (
    RecordingSink,
    load_capture,
    read_header,
    record_line_to_record,
    replay,
    save_capture,
)
from .session import BarracudaSession, SessionLaunch
