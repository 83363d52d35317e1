"""The incremental launch loop against the rescanning one it replaced.

``GpuDevice.launch`` keeps its runnable set, its barrier bookkeeping and
its store drain incremental; ``oracle.reference_launch`` re-derives all
three from scratch on every step.  They must produce the same schedule:
same picks, same record stream, same counters, same final memory, and
the same exception at the same step.  Both loops are driven with the
production engine (``decoded``) and with the engine oracle (``naive``,
``oracle.NaiveKernelExecution``), substituted through the one seam the
device has: its module-level ``KernelExecution`` name.  ``lavamd`` runs
on ``decoded`` alone (the oracle engine takes ~15 s on it); the oracle
engine is held to the production one there by
``test_engine_equivalence.py``.

The second half pins *how* the loop gets there, by counting rather than
timing: the scheduler sees exactly the runnable warps in ascending
order on every pick, and the warp list is scanned per barrier event,
never per step.
"""

import functools

import pytest

from repro.bench import ALL_WORKLOADS
from repro.cudac import compile_cuda
from repro.errors import DeadlockError, SimulationError, StepLimitExceeded
from repro.events import RecordKind
from repro.gpu import GpuDevice, ListSink, WarpSerializingScheduler
from repro.gpu import device as device_module
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.interpreter import KernelExecution
from repro.gpu.scheduler import (
    SCHEDULER_KINDS as ALL_KINDS,
    SWEEP_KINDS,
    RecordingScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
)
from repro.instrument.passes import Instrumenter
from repro.predict.sweep import ARCHES
from repro.suite import ALL_PROGRAMS, SCHEDULE_PROGRAMS
from repro.suite.model import Buffer, Expected, SuiteProgram

from oracle import NaiveKernelExecution, reference_launch

ENGINES = {"decoded": KernelExecution, "naive": NaiveKernelExecution}

SCHEDULER_KINDS = ("roundrobin",) + SWEEP_KINDS
SEED = 7
#: No program of either registry needs more than ~12k steps to finish
#: under any of ``SCHEDULER_KINDS``; the spin programs that a serializing
#: sweep schedule hangs are compared at this step instead of at 400k.
MAX_STEPS = 20_000


class CheckedScheduler(Scheduler):
    """Delegates to ``inner``; asserts the ``runnable`` contract first."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.execution = None

    def pick(self, runnable):
        ids = [w.warp for w in runnable]
        assert ids, "pick called with nothing runnable"
        assert all(a < b for a, b in zip(ids, ids[1:])), f"not ascending: {ids}"
        assert not any(w.done or w.at_barrier for w in runnable), ids
        if self.execution is not None:
            expected = [
                w.warp for w in self.execution.warps
                if not w.done and not w.at_barrier
            ]
            assert ids == expected, f"runnable {ids}, expected {expected}"
        return self.inner.pick(runnable)

    def after_step(self, execution) -> None:
        self.execution = execution
        self.inner.after_step(execution)


@functools.lru_cache(maxsize=None)
def _instrumented(program):
    module, _report = Instrumenter().instrument_module(program.compile())
    return module


def _run(program, launch, engine, scheduler, max_steps=MAX_STEPS):
    """One instrumented launch of ``program`` through ``launch`` (the
    device's loop or the oracle's), summarized for exact comparison."""
    device = GpuDevice(ARCHES[getattr(program, "arch", "titanx")])
    module = _instrumented(program)
    params = {}
    for buffer in program.buffers:
        addr = device.alloc(buffer.words * 4)
        values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
        device.memcpy_to_device(addr, values)
        params[buffer.name] = addr
    buffers = dict(params)
    params.update(program.scalars)
    sink = ListSink()
    recording = RecordingScheduler(scheduler)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(device_module, "KernelExecution", ENGINES[engine])
            result = launch(
                device,
                module,
                module.kernels[0].name,
                program.grid,
                program.block,
                params=params,
                warp_size=program.warp_size,
                sink=sink,
                instrumented=True,
                scheduler=recording,
                max_steps=min(max_steps, program.max_steps),
                cooperative=getattr(program, "cooperative", False),
            )
        outcome = (result.steps, result.instructions, result.cycles,
                   result.records_emitted)
    except (DeadlockError, StepLimitExceeded, SimulationError) as exc:
        outcome = (type(exc), str(exc))
    memory = {
        buffer.name: device.memcpy_from_device(buffers[buffer.name], buffer.words)
        for buffer in program.buffers
    }
    return {
        "outcome": outcome,
        "decisions": recording.decisions,
        "records": sink.records,
        "memory": memory,
    }


def _assert_same_schedule(program, engine, kind):
    expected = _run(program, reference_launch, engine,
                    make_scheduler(kind, SEED))
    actual = _run(program, GpuDevice.launch, engine,
                  CheckedScheduler(make_scheduler(kind, SEED)))
    for key, want in expected.items():
        assert actual[key] == want, f"{program.name}/{engine}/{kind}: {key}"
    return actual


def _program(name, description, source, expected, grid, block, buffers,
             cooperative=False):
    return SuiteProgram(
        name=name, category="launch-loop", description=description,
        source=source, expected=expected, grid=grid, block=block,
        buffers=tuple(Buffer(n, words) for n, words in buffers),
        cooperative=cooperative,
    )


#: Barrier shapes no registry program produces under these schedulers:
#: the event that completes a barrier is a warp *exiting*, not one
#: arriving; and grid-wide and block barriers follow one another.
BARRIER_SHAPES = [
    _program(
        "exit_completes_block_barrier",
        "Warp 0 parks at the block barrier at once; warp 1 works for a "
        "while and exits without ever reaching it.",
        """
__global__ void k(int* out) {
    if (threadIdx.x >= 32) {
        int acc = threadIdx.x;
        for (int i = 0; i < 12; i++) { acc = acc * 3 + i; }
        out[threadIdx.x] = acc;
        return;
    }
    __syncthreads();
    out[threadIdx.x] = 1;
}
""",
        Expected.BARRIER_DIVERGENCE, grid=2, block=64, buffers=[("out", 64)],
    ),
    _program(
        "exit_completes_grid_barrier",
        "Block 0 parks at the grid barrier at once; block 1 works for a "
        "while and exits without ever reaching it.",
        """
__global__ void k(int* out) {
    if (blockIdx.x == 1) {
        int acc = threadIdx.x;
        for (int i = 0; i < 12; i++) { acc = acc * 3 + i; }
        out[64 + threadIdx.x] = acc;
        return;
    }
    __grid_sync();
    out[threadIdx.x] = 1;
}
""",
        Expected.BARRIER_DIVERGENCE, grid=2, block=64, buffers=[("out", 128)],
        cooperative=True,
    ),
    _program(
        "grid_block_grid_barriers",
        "A grid barrier, a block barrier and a second grid barrier in a "
        "row: each release must leave no count behind for the next.",
        """
__global__ void k(int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = 1;
    __grid_sync();
    out[gid] = out[gid] + out[127 - gid];
    __syncthreads();
    out[gid] = out[gid] + 1;
    __grid_sync();
    out[gid] = out[gid] + out[127 - gid];
}
""",
        Expected.RACE, grid=2, block=64, buffers=[("out", 128)],
        cooperative=True,
    ),
]


_LOOP_PROGRAMS = (list(ALL_PROGRAMS) + list(SCHEDULE_PROGRAMS)
                  + list(ALL_WORKLOADS) + BARRIER_SHAPES)


@pytest.mark.parametrize("program, engine", [
    pytest.param(program, engine, id=f"{program.name}-{engine}")
    for program in _LOOP_PROGRAMS for engine in sorted(ENGINES)
    if (program.name, engine) != ("lavamd", "naive")
])
def test_same_schedule_as_reference_loop(program, engine):
    for kind in SCHEDULER_KINDS:
        actual = _assert_same_schedule(program, engine, kind)
        if program in BARRIER_SHAPES:
            assert isinstance(actual["outcome"][0], int), actual["outcome"]
            assert any(r.kind is RecordKind.BARRIER for r in actual["records"])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_the_grid_barrier_publishes_every_blocks_stores(kind):
    """``grid_sync_fixed``: each thread stores ``data[g] = g + 1``, syncs
    the grid, and reads ``data[127 - g]``.  The grid barrier's release
    commits every block's queued stores, so no block reads a stale 0."""
    (program,) = [p for p in ALL_PROGRAMS if p.name == "grid_sync_fixed"]
    for launch in (GpuDevice.launch, reference_launch):
        result = _run(program, launch, "decoded", make_scheduler(kind, SEED))
        assert result["memory"]["out"] == [128 - g for g in range(128)]


# ----------------------------------------------------------------------
# Failure points
# ----------------------------------------------------------------------
SPIN_ON_LATER_WARP = _program(
    "spin_on_later_warp",
    "Block 0 spins on a flag only block 1 sets: a hang under a "
    "serializing schedule.",
    """
__global__ void handoff(int* flag, int* out) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            while (flag[0] == 0) { }
            out[0] = 1;
        }
    } else {
        if (threadIdx.x == 0) {
            flag[0] = 1;
        }
    }
}
""",
    Expected.NO_RACE, grid=2, block=32, buffers=[("flag", 1), ("out", 1)],
)

SPLIT_BARRIER = _program(
    "split_barrier",
    "Warp 0 of each block waits at the block barrier for warp 1, which "
    "waits at the grid barrier for everyone: neither is ever released.",
    """
__global__ void split(int* out) {
    if (threadIdx.x < 32) {
        __syncthreads();
    } else {
        __grid_sync();
    }
    out[threadIdx.x] = 1;
}
""",
    Expected.BARRIER_DIVERGENCE, grid=2, block=64, buffers=[("out", 64)],
    cooperative=True,
)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_step_limit_raised_at_the_same_step(engine):
    expected = _run(SPIN_ON_LATER_WARP, reference_launch, engine,
                    WarpSerializingScheduler(), max_steps=300)
    actual = _run(SPIN_ON_LATER_WARP, GpuDevice.launch, engine,
                  CheckedScheduler(WarpSerializingScheduler()), max_steps=300)
    assert actual["outcome"][0] is StepLimitExceeded
    assert len(actual["decisions"]) == 301
    assert actual == expected


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_deadlock_raised_at_the_same_step(engine, kind):
    actual = _assert_same_schedule(SPLIT_BARRIER, engine, kind)
    assert actual["outcome"][0] is DeadlockError
    assert actual["decisions"]  # warps ran before parking for good


# ----------------------------------------------------------------------
# How the loop gets there, counted
# ----------------------------------------------------------------------
def test_checked_scheduler_rejects_a_bad_runnable_list():
    device = GpuDevice()
    module = compile_cuda("__global__ void k(int* out) { out[threadIdx.x] = 1; }")
    execution = KernelExecution(
        module=module, kernel=module.kernels[0],
        config=LaunchConfig.of(1, 96, 32), params={"out": 0},
        global_mem=device.global_mem, global_symbols={},
    )
    w0, w1, w2 = execution.warps
    checked = CheckedScheduler(RoundRobinScheduler())
    assert checked.pick([w0, w1, w2]) is w0
    with pytest.raises(AssertionError, match="not ascending"):
        checked.pick([w1, w0])
    w2.at_barrier = True
    with pytest.raises(AssertionError):
        checked.pick([w0, w2])
    checked.after_step(execution)
    with pytest.raises(AssertionError, match="expected"):
        checked.pick([w0])  # misses w1


class _CountingList(list):
    """A list that counts how often it is iterated from the start."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def _counting_engine(engine, created):
    class Counting(ENGINES[engine]):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.warps = _CountingList(self.warps)
            created.append(self)

    return Counting


STRAIGHT_LINE = """
__global__ void k(int* out) {
    int acc = threadIdx.x;
    for (int i = 0; i < 24; i++) { acc = acc * 3 + i; }
    out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}
"""

BARRIER_PHASES = """
__global__ void k(int* out) {
    __shared__ int tile[128];
    for (int i = 0; i < 6; i++) {
        tile[threadIdx.x] = i + threadIdx.x;
        __syncthreads();
    }
    out[blockIdx.x * blockDim.x + threadIdx.x] = tile[127 - threadIdx.x];
}
"""


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "source,barriers", [(STRAIGHT_LINE, 0), (BARRIER_PHASES, 6)],
    ids=["no-barrier", "barrier-phases"],
)
def test_warp_list_is_scanned_per_barrier_event_not_per_step(
        monkeypatch, source, barriers, engine):
    grid, block = 16, 128  # 64 warps
    created = []
    monkeypatch.setattr(
        device_module, "KernelExecution", _counting_engine(engine, created))
    device = GpuDevice()
    out = device.alloc(grid * block * 4)
    result = device.launch(
        compile_cuda(source), "k", grid, block, params={"out": out})
    (execution,) = created
    warps = len(execution.warps)
    assert warps == 64
    exits, arrivals, releases = warps, warps * barriers, grid * barriers
    budget = exits + arrivals + releases + 2  # + launch set-up, all-done check
    assert execution.warps.scans <= budget < result.steps
    if not barriers:
        assert execution.warps.scans == 2
