"""Differential proof that the engine matches its oracle.

The threaded-code engine (``repro.gpu.interpreter.KernelExecution``)
claims to be *bit-identical* to the re-decode-every-step interpreter it
replaced (``tests/oracle.py``: ``NaiveKernelExecution``, substituted
through ``oracle_engine()``): same event stream, same reports, same
instruction/cycle accounting, same failures.  This suite holds it to
that claim across every suite program (with and without static
instrumentation pruning) and every Table 1 workload.

The detector axis rides the same programs.  The per-record oracle
(``tests/oracle.py``: ``record_to_ops`` → ``BarracudaDetector.process``,
which no production path runs any more) must agree with the fused loop
the live launch ran (races, barrier divergences, ``ops_processed``,
``clocks.joins``) and with ``replay()`` of the launch's capture after a
lossless round trip through both persistence formats (JSONL and binary
columnar).
"""

import io

from typing import Dict, Tuple

import pytest

from repro.bench import ALL_WORKLOADS, run_workload
from repro.core.detector import BarracudaDetector
from repro.cudac import compile_cuda
from repro.errors import SimulationError, StepLimitExceeded
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.obs import make_observability
from repro.ptx import parse_ptx
from repro.runtime import BarracudaSession
from repro.runtime.replay import (
    load_capture,
    load_capture_binary,
    replay,
    save_capture,
    save_capture_binary,
)
from repro.suite import ALL_PROGRAMS

from oracle import oracle_engine, per_record_oracle


def _launch(program, session: BarracudaSession):
    """One capturing launch of a suite program or Table 1 workload."""
    module = program.compile()
    session.register_module(module)
    params: Dict[str, int] = {}
    for buffer in program.buffers:
        addr = session.device.alloc(buffer.words * 4)
        values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
        session.device.memcpy_to_device(addr, values)
        params[buffer.name] = addr
    for name, value in program.scalars:
        params[name] = value
    return session.launch(
        module.kernels[0].name,
        grid=program.grid,
        block=program.block,
        warp_size=program.warp_size,
        params=params,
        max_steps=program.max_steps,
        capture_records=True,
        cooperative=getattr(program, "cooperative", False),
    )


def _run_suite_program(program, static_prune: bool) -> Tuple:
    """One instrumented launch, summarized for exact comparison.

    The returned tuple contains the full captured event stream, the
    launch counters, and the report set — everything observable about a
    launch short of wall-clock time.
    """
    session = BarracudaSession(static_prune=static_prune)
    try:
        launch = _launch(program, session)
    except StepLimitExceeded:
        return ("hang",)
    except SimulationError as exc:
        return ("error", str(exc))
    result = launch.instrumented
    return (
        "ok",
        launch.captured_records,
        (
            result.instructions,
            result.cycles,
            result.stall_cycles,
            result.records_emitted,
        ),
        sorted(str(race) for race in launch.reports.races),
        sorted(str(report) for report in launch.reports.barrier_divergences),
    )


@pytest.mark.parametrize("static_prune", [False, True], ids=["prune-off", "prune-on"])
@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_suite_program_equivalence(program, static_prune):
    with oracle_engine():
        expected = _run_suite_program(program, static_prune)
    assert _run_suite_program(program, static_prune) == expected


def _report_lines(reports) -> Tuple:
    return (
        sorted(str(race) for race in reports.races),
        sorted(str(report) for report in reports.barrier_divergences),
    )


def _assert_oracle_differential(program, static_prune: bool) -> None:
    """Per-record oracle vs live launch vs replay of both capture formats."""
    obs = make_observability(metrics=True)
    session = BarracudaSession(static_prune=static_prune, obs=obs)
    try:
        launch = _launch(program, session)
    except (StepLimitExceeded, SimulationError) as exc:
        pytest.skip(f"{type(exc).__name__}: no capture to persist")
    records = launch.captured_records
    layout = LaunchConfig.of(
        program.grid, program.block, program.warp_size).layout()

    oracle = per_record_oracle(layout, records)
    expected = _report_lines(oracle.reports)
    counters = (oracle.ops_processed, oracle.clocks.joins)

    metrics = obs.metrics.snapshot()
    assert _report_lines(launch.reports) == expected
    assert (
        metrics["repro_detector_ops_total"]["values"][""],
        metrics["repro_vector_clock_joins_total"]["values"][""],
    ) == counters

    text = io.StringIO()
    save_capture(text, layout, records, kernel=program.name)
    text.seek(0)
    jsonl_layout, jsonl_kernel, jsonl_records = load_capture(text)
    assert (jsonl_layout, jsonl_kernel) == (layout, program.name)
    assert jsonl_records == records
    assert _report_lines(replay(layout, jsonl_records)) == expected

    blob = io.BytesIO()
    save_capture_binary(blob, layout, records, kernel=program.name,
                        batch_records=64)
    blob.seek(0)
    bin_layout, bin_kernel, batches = load_capture_binary(blob)
    assert (bin_layout, bin_kernel) == (layout, program.name)
    assert [r for batch in batches for r in batch.to_records()] == records
    assert _report_lines(replay(layout, batches)) == expected
    fused = BarracudaDetector(layout)
    for batch in batches:
        fused.process_columnar(batch)
    assert (fused.ops_processed, fused.clocks.joins) == counters


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_capture_format_equivalence(program):
    """Every suite program, with and without static pruning."""
    for static_prune in (False, True):
        _assert_oracle_differential(program, static_prune)


@pytest.mark.parametrize("entry", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_capture_format_equivalence(entry):
    """Every Table 1 workload, with and without static pruning."""
    for static_prune in (False, True):
        _assert_oracle_differential(entry, static_prune)


@pytest.mark.parametrize("entry", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_equivalence(entry):
    def outcome():
        run = run_workload(
            entry, session=BarracudaSession(), compare_native=False)
        result = run.launch.instrumented
        return (
            sorted(str(race) for race in run.launch.reports.races),
            result.instructions,
            result.cycles,
            result.stall_cycles,
            result.records_emitted,
        )

    with oracle_engine():
        expected = outcome()
    assert outcome() == expected


# ----------------------------------------------------------------------
# Rows for the warp-level register file: geometries and shapes the
# registries under-cover.  Each is one instrumented launch on the engine
# and on the oracle, compared on the record stream, the counters and
# final memory.
# ----------------------------------------------------------------------
PTX_HEADER = ".version 4.3\n.target sm_35\n.address_size 64\n"

MIX = """
__global__ void mix(int* in, int* out, int n) {
    __shared__ int s[64];
    int t = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + t;
    int v = in[gid];
    if (gid < n) {
        for (int i = 0; i < 3; i = i + 1) {
            if ((v & 1) == 0) { v = v * 3 + i; } else { v = v - gid; }
        }
    }
    s[t] = v;
    __syncthreads();
    out[gid] = s[(t + 1) % blockDim.x] + (gid >> 1) + (v << 29);
}
"""

PLANE = """
__global__ void plane(int* out) {
    int x = threadIdx.x;
    int y = threadIdx.y;
    int slot = (blockIdx.x * blockDim.y + y) * blockDim.x + x;
    if (x < y) { out[slot] = x * 100 + y; } else { out[slot] = slot - x; }
}
"""

CALLS = """
__device__ void bump(int* out, int slot, int by) {
    if (by > 4) { out[slot] = out[slot] + by * 3; }
    out[slot + 64] = slot - by;
}

__global__ void calls(int* out) {
    int t = threadIdx.x;
    if ((t & 3) == 1) { bump(out, t, t + blockIdx.x); }
    if (t < 5) { bump(out, t, 7); }
    bump(out, t, blockIdx.x);
}
"""

EXCHANGE = """
__global__ void exchange(int* out) {
    int t = threadIdx.x;
    int a = __shfl_down_sync(0xffffffff, t, 1);
    int u = __shfl_xor_sync(0xffffffff, blockIdx.x + 5, 3);
    int b = __ballot_sync(0xffffffff, 1);
    int c = __any_sync(0xffffffff, t);
    int d = __all_sync(0xffffffff, t < 40);
    out[t] = a + u * 100 + (b & 255) + c + d;
    if (t < 16) {
        int e = __shfl_up_sync(0x0000ffff, t * 2, 2);
        int f = __ballot_sync(0x0000ffff, t & 1);
        int g = __shfl_sync(0x0000ffff, blockIdx.x, 3);
        out[t + 64] = e + f + g;
    }
}
"""

#: Every mask operation at once: nested divergence, a device call under
#: divergence, ``__syncthreads`` and ``vote``/``shfl`` on a whole warp
#: and under divergence.  ``(t & 3) < 2`` is lanes 0 and 1 of every
#: four, which is what the ``0x33333333`` membermask names, so the
#: divergent exchange is legal at every warp size that is a multiple
#: of four.
LANES = """
__device__ void bump(int* out, int slot, int by) {
    if (by & 1) { out[slot] = out[slot] + by; }
    out[slot + 128] = slot - by;
}

__global__ void lanes(int* out) {
    __shared__ int s[128];
    int t = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + t;
    int v = t;
    if (t & 1) {
        if (t & 2) { v = v * 3; } else { v = v + 7; bump(out, gid, t); }
    } else {
        if (t % 3 == 0) { bump(out, gid, v + 1); }
    }
    s[t] = v;
    __syncthreads();
    int b = __ballot_sync(0xffffffff, v & 1);
    int x = __shfl_down_sync(0xffffffff, v, 1);
    if ((t & 3) < 2) {
        int c = __ballot_sync(0x33333333, t & 1);
        int y = __shfl_xor_sync(0x33333333, v, 1);
        v = v + c + y;
    }
    out[gid + 256] = s[(t + 1) % blockDim.x] + b + x + v;
}
"""

#: ``%r5`` is first written under a guard predicate and ``%r6`` on one
#: arm of a divergent branch; both are read after reconvergence, where
#: the lanes that never wrote them must read 0.
LATE_WRITE = PTX_HEADER + """
.visible .entry late(.param .u64 out)
{
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 mov.u32 %r5, 7;
    setp.lt.u32 %p2, %r1, 3;
    @!%p2 bra $L_skip;
    mad.lo.u32 %r6, %r1, 10, %r5;
$L_skip:
    add.u32 %r7, %r5, %r6;
    @%p1 add.u32 %r7, %r7, %ntid.x;
    ld.param.u64 %rd1, [out];
    cvt.u64.u32 %rd2, %r1;
    mul.lo.u64 %rd2, %rd2, 4;
    add.u64 %rd1, %rd1, %rd2;
    st.global.u32 [%rd1], %r7;
    ret;
}
"""

SHAPE_ROWS = [
    # (id, source, grid, block, warp size, buffers, scalars)
    ("warp-8", MIX, 2, 24, 8, {"in": 48, "out": 48}, {"n": 40}),
    ("warp-16", MIX, 2, 48, 16, {"in": 96, "out": 96}, {"n": 90}),
    ("partial-last-warp", MIX, 2, 40, 32, {"in": 80, "out": 80}, {"n": 77}),
    ("partial-last-warp-8", MIX, 3, 13, 8, {"in": 39, "out": 39}, {"n": 39}),
    ("block-narrower-than-warp", PLANE, 2, (4, 8), 32, {"out": 64}, {}),
    ("block-rows-straddle-warps", PLANE, 2, (5, 4), 8, {"out": 40}, {}),
    ("call-under-divergence", CALLS, 2, 32, 32, {"out": 128}, {}),
    ("call-under-divergence-warp-8", CALLS, 1, 20, 8, {"out": 128}, {}),
    ("shfl-vote-affine-uniform", EXCHANGE, 2, 64, 32, {"out": 128}, {}),
    ("first-write-under-partial-mask", LATE_WRITE, 2, 12, 8, {"out": 12}, {}),
    ("masks-warp-4", LANES, 2, 24, 4, {"out": 512}, {}),
    ("masks-warp-64", LANES, 1, 96, 64, {"out": 512}, {}),
    ("masks-partial-last-warp", LANES, 2, 40, 32, {"out": 512}, {}),
]


def _observe_launch(source, grid, block, warp_size, buffers, scalars):
    module = parse_ptx(source) if source.startswith(".version") else compile_cuda(source)
    module, _report = Instrumenter().instrument_module(module)
    device = GpuDevice()
    params = {}
    for index, (name, words) in enumerate(buffers.items()):
        params[name] = device.alloc(words * 4)
        device.memcpy_to_device(
            params[name], [(7 * i + index) % 23 for i in range(words)])
    sink = ListSink()
    result = device.launch(
        module, module.kernels[0].name, grid, block,
        params={**params, **scalars}, warp_size=warp_size, sink=sink,
        instrumented=True,
    )
    assert sink.records
    return (
        sink.records,
        (result.steps, result.instructions, result.cycles,
         result.records_emitted),
        {name: device.memcpy_from_device(params[name], words)
         for name, words in buffers.items()},
    )


@pytest.mark.parametrize("row", SHAPE_ROWS, ids=lambda row: row[0])
def test_register_file_shape_rows(row):
    _name, *launch = row
    with oracle_engine():
        expected = _observe_launch(*launch)
    assert _observe_launch(*launch) == expected
