"""Experiment E11 — service ablation: throughput vs detector worker count.

The race-detection service shards jobs across single-process detector
workers (round-robin, job-affine — ``repro.service.pipeline``).  This
benchmark drives a multi-job load through the pipeline, measures each
job's real detector busy time, and reports the aggregate records/sec of
the sharded pool as worker count grows.

Like the E7 queue ablation, the scaling metric is *modeled*: each shard
is serial, so a load's completion time under perfect overlap is the
critical path ``max(per-shard busy time)`` with jobs assigned round-robin
exactly as the pool assigns them.  Wall-clock on this host would measure
the CI machine's core count, not the architecture (the container this
repo grew on has a single core); the busy times feeding the model are
real, per-batch measured detector work.

Recorded alongside E7 in the experiment index.
"""

from conftest import print_table

from repro.columnar import encode_batch, iter_batches
from repro.events import LogRecord, RecordKind
from repro.service import ShardedDetectorPool, reports_from_payload
from repro.service.protocol import encode_batch_wire
from repro.trace import Space
from repro.trace.layout import GridLayout

JOBS = 8
RECORDS_PER_JOB = 240
LANES_PER_RECORD = 8
BATCH = 32
WORKER_COUNTS = (1, 2, 4, 8)

LAYOUT = GridLayout(num_blocks=4, threads_per_block=64, warp_size=32)


def _job_frames(seed: int):
    """One synthetic capture — stores with cross-warp overlap (real
    races) — as the ``(encoded batch, count)`` wire items of the service,
    ``BATCH`` records each."""
    records = []
    for i in range(RECORDS_PER_JOB):
        warp = i % (LAYOUT.num_blocks * 2)
        base_tid = warp * LAYOUT.warp_size
        tids = range(base_tid, base_tid + LANES_PER_RECORD)
        records.append(LogRecord(
            kind=RecordKind.STORE,
            warp=warp,
            active=frozenset(tids),
            addrs={tid: (Space.GLOBAL, ((seed + i + tid) % 512) * 4)
                   for tid in tids},
            values={tid: seed + i for tid in tids},
            pc=i,
        ))
    return [encode_batch_wire(encode_batch(batch))
            for batch in iter_batches(records, batch_records=BATCH)]


def _measure_job_busy(pool, job_id, frames):
    """Run one job through the pool; returns (busy seconds, report payload)."""
    pool.open_job(job_id, LAYOUT).result()
    busy = 0.0
    for frame in frames:
        _count, elapsed = pool.submit_batch(job_id, [frame]).result()
        busy += elapsed
    return busy, pool.close_job(job_id).result()


def _critical_path(job_busy, workers: int) -> float:
    """Completion time under perfect shard overlap, round-robin assignment."""
    shards = [0.0] * workers
    for index, busy in enumerate(job_busy):
        shards[index % workers] += busy
    return max(shards)


def test_throughput_scales_with_worker_count():
    jobs = [_job_frames(seed=137 * j) for j in range(JOBS)]
    job_busy = []
    payloads = []
    with ShardedDetectorPool(workers=0) as pool:
        for j, frames in enumerate(jobs):
            busy, payload = _measure_job_busy(pool, f"bench-{j}", frames)
            job_busy.append(busy)
            payloads.append(payload)
    assert all(busy > 0 for busy in job_busy)
    assert all(reports_from_payload(p).races for p in payloads)

    total_records = JOBS * RECORDS_PER_JOB
    throughput = {
        workers: total_records / _critical_path(job_busy, workers)
        for workers in WORKER_COUNTS
    }

    rows = []
    base = throughput[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS:
        rows.append(f"{workers:>7} | {throughput[workers]:>14.0f} | "
                    f"{throughput[workers] / base:>7.2f}x")
    print_table(
        f"E11 — service throughput scaling ({JOBS} jobs x "
        f"{RECORDS_PER_JOB} records, modeled shard overlap)",
        "workers | records/sec    | speedup",
        rows,
    )

    # The acceptance bar: aggregate throughput improves monotonically from
    # one worker up through at least four.
    ordered = [throughput[w] for w in WORKER_COUNTS]
    for slower, faster in zip(ordered, ordered[1:]):
        assert faster > slower


def test_process_pool_agrees_with_inline_pipeline():
    """The real multi-process pool produces byte-identical report payloads."""
    frames = _job_frames(seed=7)
    with ShardedDetectorPool(workers=0) as pool:
        _busy, inline_payload = _measure_job_busy(pool, "inline", frames)
    with ShardedDetectorPool(workers=2) as pool:
        results = [_measure_job_busy(pool, f"proc-{j}", frames) for j in range(2)]
    for _busy, payload in results:
        assert payload == inline_payload
