"""Named fault-injection sites and the fault kinds each one supports.

A *site* is a stable name for one place in the pipeline where a
:class:`~repro.faults.injector.FaultInjector` is consulted.  Sites are
registered here — not discovered — so a fault plan naming a site that
does not exist (a typo, or a site removed by refactoring) is rejected
at plan-load time instead of silently never firing.

The taxonomy follows the pipeline stages:

========================  ====================================================
site                      fault kinds
========================  ====================================================
``queue.push``            ``ring-full`` (forced producer stall),
                          ``drop-commit`` (record written, commit withheld
                          until the next push — the §4.2 lost-commit hazard)
``client.connect``        ``connect-fail`` (connection refused)
``client.send``           ``truncate-frame``, ``garbage-frame``,
                          ``duplicate-frame``, ``connection-reset``,
                          ``slow-write``
``worker.batch``          ``crash`` (shard process dies mid-job), ``hang``
                          (worker stops making progress), ``poison``
                          (deterministic per-record failure)
``replay.record_line``    ``truncate-line``, ``garbage-line``
========================  ====================================================
"""

from __future__ import annotations

from typing import Dict, FrozenSet

QUEUE_PUSH = "queue.push"
CLIENT_CONNECT = "client.connect"
CLIENT_SEND = "client.send"
WORKER_BATCH = "worker.batch"
REPLAY_LINE = "replay.record_line"

# Queue-layer kinds (paper §4.2's three-index ring protocol).
RING_FULL = "ring-full"
DROP_COMMIT = "drop-commit"

# Client/wire kinds.
CONNECT_FAIL = "connect-fail"
TRUNCATE_FRAME = "truncate-frame"
GARBAGE_FRAME = "garbage-frame"
DUPLICATE_FRAME = "duplicate-frame"
CONNECTION_RESET = "connection-reset"
SLOW_WRITE = "slow-write"

# Worker-pool kinds.
CRASH = "crash"
HANG = "hang"
POISON = "poison"

# Capture/replay kinds.
TRUNCATE_LINE = "truncate-line"
GARBAGE_LINE = "garbage-line"

#: Every registered site, mapped to the fault kinds it understands.
SITES: Dict[str, FrozenSet[str]] = {
    QUEUE_PUSH: frozenset({RING_FULL, DROP_COMMIT}),
    CLIENT_CONNECT: frozenset({CONNECT_FAIL}),
    CLIENT_SEND: frozenset({
        TRUNCATE_FRAME, GARBAGE_FRAME, DUPLICATE_FRAME, CONNECTION_RESET,
        SLOW_WRITE,
    }),
    WORKER_BATCH: frozenset({CRASH, HANG, POISON}),
    REPLAY_LINE: frozenset({TRUNCATE_LINE, GARBAGE_LINE}),
}
