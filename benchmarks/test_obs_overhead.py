"""Observability overhead guard: the disabled path must stay free.

Every hot layer takes ``obs: Observability = NULL_OBS`` and pre-resolves
its instruments to ``None`` when metrics are off, so the per-record cost
of a disabled pipeline is a single is-None check.  This benchmark pins
that claim on the E11 service-throughput scenario: the same multi-job
load is pushed through (a) a detector with the observability hook
compiled out entirely (a registry-less twin overriding ``consume``) and
(b) the shipped disabled no-op path — the detector's is-None checks
plus the tracing-off ``span()`` every launch and shard batch wraps its
drain in — and the no-op path must stay within 5% wall-time of the
registry-less run.  One ``span()`` per drain is far below what that
budget can see, so the call is also timed alone against a
generator-based context manager doing the same nothing: the disabled
recorder hands back one shared no-op and must cost well under it.

Min-of-N timing: the minimum over repeats is the run least perturbed by
the host (GC, scheduler), which is the right statistic for an
upper-bound overhead check.
"""

import io
import time
from contextlib import contextmanager

from conftest import print_table

from repro.events import LogRecord, RecordKind
from repro.obs import NULL_OBS, make_observability
from repro.runtime.host import HostDetector
from repro.runtime.replay import record_line_to_record, save_capture
from repro.trace import Space
from repro.trace.layout import GridLayout

JOBS = 4
RECORDS_PER_JOB = 240
LANES_PER_RECORD = 8
REPEATS = 5
MAX_DISABLED_OVERHEAD = 0.05
NULL_SPAN_CALLS = 20_000
#: The shared no-op measures ~1/3 of a generator-based one.
MAX_NULL_SPAN_VS_GENERATOR = 0.6

LAYOUT = GridLayout(num_blocks=4, threads_per_block=64, warp_size=32)


class RegistrylessHostDetector(HostDetector):
    """The pre-observability consume loop: no instrument check at all."""

    def consume_columnar(self, batch):
        self.records_processed += len(batch)
        self.detector.process_columnar(batch, self.granularity)


def _job_records(seed: int):
    """The E11 synthetic load: stores with cross-warp overlap."""
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
    # Round-trip through the capture format, like service jobs do.
    stream = io.StringIO()
    save_capture(stream, LAYOUT, records, kernel=f"synthetic-{seed}")
    stream.seek(0)
    _header, *lines = stream.read().splitlines()
    return [record_line_to_record(line) for line in lines]


def _run_load(jobs, make_detector, tracer=None) -> float:
    start = time.perf_counter()
    for records in jobs:
        detector = make_detector()
        if tracer is None:
            detector.consume(records)
        else:
            with tracer.span("queue-drain", kernel="bench"):
                detector.consume(records)
        assert detector.reports.races  # the load is genuinely racy
    return time.perf_counter() - start


def _best_of(repeats, jobs, make_detector, tracer=None) -> float:
    return min(_run_load(jobs, make_detector, tracer) for _ in range(repeats))


@contextmanager
def _generator_span(name, **args):
    yield ""


def _span_call_seconds(span) -> float:
    """Best-of-N cost of one ``with span(...): pass``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(NULL_SPAN_CALLS):
            with span("warp-step", track="warp-0", block=0):
                pass
        best = min(best, time.perf_counter() - start)
    return best / NULL_SPAN_CALLS


def test_disabled_observability_is_free():
    jobs = [_job_records(seed=137 * j) for j in range(JOBS)]

    registryless = _best_of(
        REPEATS, jobs, lambda: RegistrylessHostDetector(LAYOUT))
    disabled = _best_of(REPEATS, jobs, lambda: HostDetector(LAYOUT),
                        tracer=NULL_OBS.tracer)
    enabled_obs = make_observability(metrics=True)
    enabled = _best_of(
        REPEATS, jobs,
        lambda: HostDetector(LAYOUT, obs=enabled_obs, kernel="bench"))

    overhead = disabled / registryless - 1.0
    rows = [
        f"registry-less   | {registryless * 1e3:>9.2f} | {'—':>9}",
        f"disabled (noop) | {disabled * 1e3:>9.2f} | {overhead:>8.1%}",
        f"metrics enabled | {enabled * 1e3:>9.2f} | "
        f"{enabled / registryless - 1.0:>8.1%}",
    ]
    print_table(
        f"Observability overhead ({JOBS} jobs x {RECORDS_PER_JOB} records, "
        f"best of {REPEATS})",
        "pipeline        | ms        | overhead",
        rows,
    )

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled observability path costs {overhead:.1%} over a "
        f"registry-less run (budget {MAX_DISABLED_OVERHEAD:.0%})"
    )

    null_span = _span_call_seconds(NULL_OBS.tracer.span)
    generator = _span_call_seconds(_generator_span)
    print(f"tracing-off span(): {null_span * 1e9:.0f} ns/call "
          f"(generator-based: {generator * 1e9:.0f} ns)")
    assert null_span < MAX_NULL_SPAN_VS_GENERATOR * generator, (
        f"the tracing-off span() costs {null_span * 1e9:.0f} ns, "
        f"{null_span / generator:.0%} of a generator-based context "
        f"manager (budget {MAX_NULL_SPAN_VS_GENERATOR:.0%})"
    )


# ----------------------------------------------------------------------
# repro.obs v2: profiler-off decode path and always-on flight recorder
# ----------------------------------------------------------------------
#: Budget for the v2 always-on / off-by-default hot paths (ISSUE 7).
MAX_V2_OVERHEAD = 0.02

LOOP_KERNEL = """
__global__ void hotloop(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int i = 0; i < 48; i++) {
        acc = acc + data[i];
    }
    data[gid] = acc;
}
"""

PROFILE_GRID = 8
PROFILE_BLOCK = 64
PROFILE_REPEATS = 9


def test_profiler_off_decode_path_is_free(monkeypatch):
    """The disabled profiler costs one is-None check per decoded
    statement; the dispatch loop is untouched.  Compare the shipped
    engine (profiler off) against a twin whose ``_decode_ctx`` has the
    hook edited out entirely."""
    from repro.cudac import compile_cuda
    from repro.gpu import GpuDevice, KernelExecution
    from repro.gpu import device as device_module
    from repro.obs import make_observability
    from repro.ptx.ast import Instruction

    class HooklessExecution(KernelExecution):
        """The decode loop without the hook check (and, the kernel being
        well-formed, without the malformed-statement deferral)."""

        def _decode_ctx(self, ctx):
            body = ctx.kernel.body
            ops = [None] * len(body)
            conv = set(ctx.cfg.convergence_points())
            for pc in range(len(body) - 1, -1, -1):
                stmt = body[pc]
                if not isinstance(stmt, Instruction):
                    continue
                op = self._DECODERS[stmt.opcode](self, ctx, pc, stmt)
                if stmt.opcode == "_log":
                    op = self._fuse_log(ctx, pc, op, ops, conv)
                ops[pc] = op
            ctx.decoded = ops
            return ops

    module = compile_cuda(LOOP_KERNEL)
    words = PROFILE_GRID * PROFILE_BLOCK

    def launch_time(obs=None):
        # Fresh device per run so every measurement includes a cold
        # decode (the only place the disabled hook lives at all).
        device = GpuDevice()
        data = device.alloc(words * 4)
        kwargs = {"obs": obs} if obs is not None else {}
        start = time.perf_counter()
        device.launch(module, "hotloop", grid=PROFILE_GRID,
                      block=PROFILE_BLOCK, params={"data": data}, **kwargs)
        return time.perf_counter() - start

    with monkeypatch.context() as patch:
        patch.setattr(device_module, "KernelExecution", HooklessExecution)
        launch_time()  # warm caches outside the measurement
        hookless = min(launch_time() for _ in range(PROFILE_REPEATS))
    shipped = min(launch_time() for _ in range(PROFILE_REPEATS))
    profiling = make_observability(profile=True)
    enabled = min(launch_time(obs=profiling) for _ in range(PROFILE_REPEATS))

    overhead = shipped / hookless - 1.0
    print_table(
        f"Profiler hook overhead ({PROFILE_GRID}x{PROFILE_BLOCK} hotloop, "
        f"best of {PROFILE_REPEATS})",
        "engine            | ms        | overhead",
        [
            f"hookless twin     | {hookless * 1e3:>9.2f} | {'—':>9}",
            f"shipped, prof off | {shipped * 1e3:>9.2f} | {overhead:>8.1%}",
            f"shipped, prof on  | {enabled * 1e3:>9.2f} | "
            f"{enabled / hookless - 1.0:>8.1%}",
        ],
    )
    assert overhead < MAX_V2_OVERHEAD, (
        f"profiler-off decode path costs {overhead:.1%} over a hookless "
        f"engine (budget {MAX_V2_OVERHEAD:.0%})"
    )


def test_flight_recorder_hot_path_is_cheap():
    """The always-on flight ring plus the worker's pre-resolved batch
    counters, exercised once per batch (chattier than the shipped
    per-job-lifecycle cadence), must stay under 2% of batch cost."""
    from repro.obs import MetricsRegistry
    from repro.obs.flight import NULL_FLIGHT, FlightRecorder

    jobs = [_job_records(seed=31 * j) for j in range(JOBS)]
    batch = 24

    def run_load_with(flight, counters):
        start = time.perf_counter()
        for records in jobs:
            detector = HostDetector(LAYOUT)
            for lo in range(0, len(records), batch):
                chunk = records[lo:lo + batch]
                flight.record("batch", records=len(chunk))
                if counters is not None:
                    batches, recs = counters
                    batches.inc()
                    recs.inc(len(chunk))
                detector.consume(chunk)
            assert detector.reports.races
        return time.perf_counter() - start

    registry = MetricsRegistry()
    counters = (
        registry.counter("repro_worker_batches_total", "batches"),
        registry.counter("repro_worker_records_total", "records"),
    )
    silent = min(run_load_with(NULL_FLIGHT, None) for _ in range(REPEATS))
    recording = min(run_load_with(FlightRecorder("bench"), counters)
                    for _ in range(REPEATS))

    overhead = recording / silent - 1.0
    print_table(
        f"Flight-recorder hot path ({JOBS} jobs x {RECORDS_PER_JOB} "
        f"records, batch {batch}, best of {REPEATS})",
        "pipeline          | ms        | overhead",
        [
            f"no recording      | {silent * 1e3:>9.2f} | {'—':>9}",
            f"ring + counters   | {recording * 1e3:>9.2f} | {overhead:>8.1%}",
        ],
    )
    assert overhead < MAX_V2_OVERHEAD, (
        f"always-on flight/counter path costs {overhead:.1%} per batch "
        f"(budget {MAX_V2_OVERHEAD:.0%})"
    )
