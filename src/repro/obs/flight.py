"""Flight recorder: an always-on bounded ring of structured events.

Traces and metrics answer "how fast" and "how much"; the flight
recorder answers "what happened just before it went wrong".  Every
process that participates in serving a job — the asyncio server and
each shard worker — keeps a small ring of lifecycle events (job open /
close / degrade, shard respawns, requeues, watchdog timeouts, protocol
errors, fault injections).  The ring is capacity-bounded and cheap
enough to leave on unconditionally (an append to a ``deque(maxlen=N)``
plus one ``time.time()`` call; pinned <2% on the worker-batch hot path
by ``benchmarks/test_obs_overhead.py``).

Dumps are plain JSON.  The server folds shard dumps together with its
own via :func:`merge_flight_dumps` and attaches the result to degraded
job payloads automatically; the ``STATUS`` verb's ``flight`` section is
the same merged dump on demand, and ``repro explain --flight`` renders it as one
offset-sorted timeline via :func:`render_flight`.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

#: Flight-recorder dump schema version.
FLIGHT_VERSION = 1

#: Default ring capacity per process.
DEFAULT_FLIGHT_CAPACITY = 256

#: Event keys owned by the recorder itself.
_RESERVED = frozenset({"seq", "wall", "kind"})


class FlightRecorder:
    """Bounded ring of ``(seq, wall, kind, fields)`` events."""

    enabled = True

    def __init__(self, process: str,
                 capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 wall: Callable[[], float] = time.time) -> None:
        self.process = process
        self.capacity = capacity
        self._wall = wall
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0

    def record(self, kind: str, /, **fields) -> None:
        """Append one event; O(1), oldest events fall off the ring.

        ``kind`` is positional-only so callers may carry a ``kind``
        *field* (the fault injector logs the fault kind); fields that
        collide with the reserved event keys are prefixed rather than
        silently dropped.
        """
        self._seq += 1
        if _RESERVED & fields.keys():
            fields = {(f"field_{key}" if key in _RESERVED else key): value
                      for key, value in fields.items()}
        self._events.append((self._seq, self._wall(), kind, fields))

    @property
    def dropped(self) -> int:
        """Events that fell off the ring."""
        return self._seq - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def dump(self) -> dict:
        """JSON-safe snapshot of the ring."""
        return {
            "version": FLIGHT_VERSION,
            "process": self.process,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": [
                {"seq": seq, "wall": wall, "kind": kind, **fields}
                for seq, wall, kind, fields in self._events
            ],
        }

    def clear(self) -> None:
        """Reset to a fresh ring (events, sequence and drop count)."""
        self._events.clear()
        self._seq = 0


class NullFlightRecorder(FlightRecorder):
    """Recorder that drops everything (for twin benchmarks and tests)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(process="", capacity=0)

    def record(self, kind: str, /, **fields) -> None:
        pass


#: Shared disabled recorder.
NULL_FLIGHT = NullFlightRecorder()


def merge_flight_dumps(dumps: Sequence[Optional[dict]]) -> dict:
    """Fold per-process dumps into one multi-process dump.

    Invalid or empty entries are skipped — a crashed shard may return
    nothing, and the merged dump should still carry everyone else.
    """
    processes = []
    for entry in dumps:
        if not isinstance(entry, dict):
            continue
        if entry.get("version") != FLIGHT_VERSION:
            continue
        if "process" not in entry or "events" not in entry:
            continue
        processes.append(entry)
    return {"version": FLIGHT_VERSION, "processes": processes}


def _iter_processes(dump: dict) -> List[dict]:
    if "processes" in dump:
        return [p for p in dump["processes"] if isinstance(p, dict)]
    if "events" in dump:
        return [dump]
    return []


def render_flight(dump: dict) -> str:
    """Render a single or merged dump as one offset-sorted timeline.

    Events across processes are ordered by wall clock (sequence number
    breaking ties within a process) and stamped with seconds relative
    to the earliest event, so the cross-process causality of a degraded
    job reads top to bottom.
    """
    if not isinstance(dump, dict):
        raise ValueError("flight dump must be a JSON object")
    processes = _iter_processes(dump)
    rows = []
    dropped_total = 0
    for proc in processes:
        name = str(proc.get("process", "?"))
        dropped_total += int(proc.get("dropped", 0) or 0)
        for event in proc.get("events", []):
            if not isinstance(event, dict):
                continue
            try:
                wall = float(event.get("wall", 0.0))
                seq = int(event.get("seq", 0))
            except (TypeError, ValueError):
                continue
            kind = str(event.get("kind", "?"))
            fields = {k: v for k, v in event.items()
                      if k not in ("wall", "seq", "kind")}
            rows.append((wall, name, seq, kind, fields))
    if not rows:
        return "flight recorder: no events"
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    base = rows[0][0]
    width = max(len(name) for _, name, _, _, _ in rows)
    out = [f"flight recorder: {len(rows)} events "
           f"across {len(processes)} process(es)"
           + (f", {dropped_total} dropped" if dropped_total else "")]
    for wall, name, _seq, kind, fields in rows:
        detail = " ".join(f"{key}={fields[key]}" for key in sorted(fields))
        line = f"  +{wall - base:9.4f}s  {name:<{width}}  {kind}"
        if detail:
            line += f"  {detail}"
        out.append(line)
    return "\n".join(out)


def write_flight_dump(path: str, dump: dict) -> None:
    with open(path, "w") as handle:
        json.dump(dump, handle, indent=1)
        handle.write("\n")
