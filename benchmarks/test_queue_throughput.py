"""Experiment E7 — §4.2 ablation: queue count and capacity.

The paper: "we allocate multiple queues, which can achieve orders of
magnitude better throughput than using a single queue", with ~1.1–1.5
queues per SM and each thread block bound to one queue.  In-process we
measure the producer-visible effects: stall counts under pressure and
per-queue contention as the queue count varies.
"""

from conftest import print_table

from repro.events import LogRecord, RecordKind
from repro.runtime import QueueSet
from repro.trace import Space

NUM_BLOCKS = 16
RECORDS_PER_BLOCK = 256


def _record(block: int, index: int) -> LogRecord:
    tid = block * 32
    return LogRecord(
        kind=RecordKind.STORE,
        warp=block,
        active=frozenset({tid}),
        addrs={tid: (Space.GLOBAL, index * 4)},
        values={tid: index},
    )


def _consume(queue, budget: int) -> None:
    """One queue's host consumer eats up to ``budget`` records."""
    for _ in range(budget):
        if queue.pop() is None:
            return


def _drive(num_queues: int, capacity: int, drain_per_tick: int = 8):
    """Emit a block-interleaved stream against per-queue host consumers.

    One consumer thread serves each queue (§4.2's organization) and
    drains a fixed budget per "tick" of production, so aggregate drain
    bandwidth scales with queue count — exactly why the paper's multiple
    queues achieve "orders of magnitude better throughput".  A producer
    finding its queue full stalls until the emergency drain frees one
    slot.
    """
    def on_full(queue_set, index):
        _consume(queue_set.queues[index], 1)

    queues = QueueSet(
        num_queues=num_queues,
        capacity=capacity,
        block_of_record=lambda r: r.warp,
        on_full=on_full,
    )
    for index in range(RECORDS_PER_BLOCK):
        for block in range(NUM_BLOCKS):
            queues.emit(_record(block, index))
        for queue in queues.queues:
            _consume(queue, drain_per_tick)
    return queues


def test_queue_count_sweep(benchmark):
    def sweep():
        rows = []
        for num_queues in (1, 2, 4, 8, 16):
            queues = _drive(num_queues, capacity=64)
            stalls = sum(q.stats.stalls for q in queues.queues)
            stall_cycles = sum(q.stats.stall_cycles for q in queues.queues)
            max_depth = max(q.stats.max_depth for q in queues.queues)
            rows.append((num_queues, stalls, stall_cycles, max_depth))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    printable = [
        f"{n:>7} {stalls:>8} {cycles:>13} {depth:>10}"
        for n, stalls, cycles, depth in rows
    ]
    print_table(
        "§4.2: queue-count ablation (16 blocks, per-queue consumers)",
        f"{'queues':>7} {'stalls':>8} {'stall cycles':>13} {'max depth':>10}",
        printable,
    )
    stalls_by_count = {n: stalls for n, stalls, _c, _d in rows}
    # One consumer cannot keep up with 16 producing blocks; with one
    # queue per block the producers never stall.
    assert stalls_by_count[1] > 100 * max(1, stalls_by_count[16])
    assert stalls_by_count[16] == 0


def test_throughput_events_per_second(benchmark):
    queues = benchmark(lambda: _drive(num_queues=4, capacity=256))
    total = queues.total_pushed
    rate = total / benchmark.stats["mean"]
    print(f"\nqueue throughput: {rate:,.0f} records/s ({total} records, "
          f"{queues.total_bytes / 1024:.0f} KiB modeled)")


def test_capacity_sweep(benchmark):
    def sweep():
        # A single saturated queue: capacity buys time before the
        # producers outrun the lone consumer.
        return {
            capacity: sum(
                q.stats.stalls for q in _drive(num_queues=1, capacity=capacity).queues
            )
            for capacity in (16, 64, 256, 1024)
        }

    stalls = benchmark.pedantic(sweep, rounds=1, iterations=1)
    printable = [f"{c:>9} {s:>8}" for c, s in sorted(stalls.items())]
    print_table("§4.2: queue-capacity ablation", f"{'capacity':>9} {'stalls':>8}", printable)
    assert stalls[16] > stalls[1024]
