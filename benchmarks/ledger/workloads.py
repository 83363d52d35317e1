"""The ledger's five workloads: seeded inputs, one pass, its checks.

Every workload has the same shape: the constructor generates its inputs
from ``seed`` (this is the set-up the ledger times as ``setup_s``);
``run_pass`` drives the public path a user waits on — input to rendered
report — and checks the verdict; ``traced_pass`` takes the same inputs
apart layer by layer (see ``layers.py``).  Names are fixed; sizes may be
re-tuned only by a later ``benchmark`` issue.

Why these five: each layer of the pipeline dominates one workload and is
near-idle in another, so a change to one layer has a workload that must
move and a workload that must not (see README.md for the table).
"""

from __future__ import annotations

import io
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.bench import ALL_WORKLOADS, Workload, run_workload
from repro.core.races import DetectorReports, RaceReport
from repro.cudac import compile_cuda
from repro.events import LogRecord, RecordKind
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.scheduler import RoundRobinScheduler
from repro.ptx.parser import parse_ptx_cached
from repro.runtime import BarracudaSession
from repro.runtime.replay import (
    load_capture_binary,
    replay,
    replay_batches,
    save_capture_binary,
)
from repro.suite import ALL_PROGRAMS, Buffer, run_program
from repro.trace.layout import GridLayout
from repro.trace.operations import Space

from layers import (
    ON_PATH_CAPTURE,
    ON_PATH_PROGRAM,
    LayerTrace,
    arch_of,
    render,
    upload,
)

MASK32 = 0xFFFFFFFF

#: Per-scale sizes.  ``full`` is what the ledger reports; ``tiny`` exists
#: for the smoke test and must only shrink sizes, never change shapes.
SCALES: Dict[str, Dict[str, int]] = {
    "full": dict(
        sweep_stride=1, compute_threads=4096, compute_iters=48,
        stream_threads=16384, stream_planted=16, sync_threads=3072,
        replay_blocks=128, replay_planted=16,
    ),
    "tiny": dict(
        sweep_stride=8, compute_threads=256, compute_iters=8,
        stream_threads=512, stream_planted=4, sync_threads=256,
        replay_blocks=4, replay_planted=4,
    ),
}

RaceKey = Tuple[str, int, int, Tuple[int, ...], Tuple[str, ...]]

#: Warp steps between two laps of a kernel launch.
LAP_STEPS = 256


class Laps:
    """Clock readings taken at the same points of every pass of a seed.

    The passes of a seed replay identical work, so lap ``k`` of one pass
    did what lap ``k`` of every other pass did; ``run.py`` keeps the
    fastest reading of each lap (see ``quiet_total`` there).
    """

    __slots__ = ("wall", "cpu")

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []

    def mark(self) -> None:
        self.wall.append(time.perf_counter())
        self.cpu.append(time.process_time())

    def each(self, items: Iterable) -> Iterator:
        """``items``, with a lap after the consumer is done with each."""
        for item in items:
            yield item
            self.mark()


class LapScheduler(RoundRobinScheduler):
    """The default schedule, with a lap every ``LAP_STEPS`` picks."""

    def __init__(self, laps: Laps) -> None:
        super().__init__()
        self._laps = laps
        self._picks = 0

    def pick(self, runnable):
        self._picks += 1
        if self._picks % LAP_STEPS == 0:
            self._laps.mark()
        return super().pick(runnable)


@dataclass
class PassResult:
    """What one pass carried to a verdict, and how the checks went."""

    #: Log records carried to a verdict (the base of ``records_per_s``).
    records: int = 0
    attempted: int = 0
    failed: int = 0
    #: Deterministic counts: must repeat exactly on every pass of a seed.
    counts: Dict[str, int] = field(default_factory=dict)
    #: CRC of the outputs and report set: differs when the seed does.
    digest: int = 0
    #: Wall time of each operation, where a pass makes many (>=20 of
    #: them across the timed passes earn a p90).
    samples: List[float] = field(default_factory=list)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def race_key(race: RaceReport) -> RaceKey:
    """A race as an unordered pair of accesses at one location."""
    return (
        race.loc.space.value, race.loc.block, race.loc.offset,
        tuple(sorted((race.prior_tid, race.current_tid))),
        tuple(sorted((race.prior_access.value, race.current_access.value))),
    )


def check_races(result: PassResult, reports: DetectorReports,
                expected: Set[RaceKey]) -> Set[RaceKey]:
    """One check per expected race, plus one that nothing else is reported."""
    found = {race_key(race) for race in reports.races}
    for key in expected:
        result.check(key in found)
    result.check(found <= expected and not reports.barrier_divergences)
    return found


def crc(value) -> int:
    return zlib.crc32(repr(value).encode("utf-8"))


def wrap_mul_add(x: int, m: int, a: int) -> int:
    return (x * m + a) & MASK32


class LedgerWorkload:
    """Inputs from a seed, one checked pass, the same pass layer by layer."""

    name: str
    #: Layer spans of the traced pass that stand in for ``run_pass``.
    on_path: List[str]

    def run_pass(self, laps: Laps) -> PassResult:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass: caches fill and lazy set-up finishes."""
        self.run_pass(Laps())

    def traced_pass(self, trace: LayerTrace) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# suite_sweep
# ----------------------------------------------------------------------
class SuiteSweep(LedgerWorkload):
    """All suite programs + Table-1 workloads, one fresh session each."""

    name = "suite_sweep"
    on_path = ON_PATH_PROGRAM

    def __init__(self, seed: int, scale: str) -> None:
        entries = list(ALL_PROGRAMS) + list(ALL_WORKLOADS)
        self.entries = entries[::SCALES[scale]["sweep_stride"]]
        # The programs are the fixed labelled set; the seed decides the
        # order they run in.
        random.Random(f"suite_sweep:{seed}").shuffle(self.entries)

    def run_pass(self, laps: Laps) -> PassResult:
        parse_ptx_cached.cache_clear()
        result = PassResult()
        verdicts = []
        for entry in self.entries:
            if isinstance(entry, Workload):
                session = BarracudaSession()
                outcome = run_workload(entry, session=session, compare_native=False)
                racy = entry.expected_race_space is not None
                ok = (
                    outcome.races > 0 and entry.expected_race_space in outcome.race_spaces
                    if racy else outcome.races == 0
                )
                verdict = (entry.name, outcome.races, tuple(outcome.race_spaces))
            else:
                session = BarracudaSession(arch=arch_of(entry))
                outcome = run_program(entry, session=session)
                ok = outcome.matches(entry)
                verdict = (entry.name, outcome.races, outcome.barrier_divergences,
                           outcome.hang, outcome.error)
            rendered = [render(launch.reports) for launch in session.launches]
            laps.mark()
            result.check(ok)
            result.records += sum(launch.records for launch in session.launches)
            verdicts.append((verdict, rendered))
        result.counts = {
            "programs": len(self.entries),
            "records": result.records,
            "races": sum(v[0][1] for v in verdicts),
        }
        result.digest = crc(verdicts)
        # One lap a program: the laps are the per-program times.
        result.samples = [b - a for a, b in zip(laps.wall, laps.wall[1:])]
        return result

    def traced_pass(self, trace: LayerTrace) -> None:
        for entry in self.entries:
            trace.program(entry)


# ----------------------------------------------------------------------
# Single-kernel workloads
# ----------------------------------------------------------------------
class KernelWorkload(LedgerWorkload):
    """One CUDA-C kernel: compile, register, upload, launch, render, check."""

    on_path = ON_PATH_PROGRAM
    program: Workload
    expected_buffers: Dict[str, List[int]]

    def run_pass(self, laps: Laps, capture: bool = False) -> PassResult:
        parse_ptx_cached.cache_clear()
        program = self.program
        session = BarracudaSession()
        module = compile_cuda(program.source)
        session.register_module(module)
        params = upload(session.device, program)
        laps.mark()
        launch = session.launch(
            module.kernels[0].name, grid=program.grid, block=program.block,
            params=params, capture_records=capture, scheduler=LapScheduler(laps))
        laps.mark()
        rendered = render(launch.reports)
        result = PassResult(records=launch.records)
        self.captured = launch.captured_records  # None unless capturing
        found = check_races(result, launch.reports, self.expected(params))
        outputs = {}
        for name, expected in self.expected_buffers.items():
            outputs[name] = session.device.memcpy_from_device(params[name], len(expected))
            result.check(outputs[name] == expected)
        result.counts = {
            "instructions": launch.instrumented.instructions,
            "records": launch.records,
            "races": len(launch.races),
            "rendered_lines": len(rendered),
        }
        result.digest = crc((sorted(found), outputs))
        return result

    def expected(self, params: Dict[str, int]) -> Set[RaceKey]:
        """The races planted by construction, at this launch's addresses."""
        return set()

    def traced_pass(self, trace: LayerTrace) -> None:
        trace.program(self.program)


def _kernel(name: str, description: str, source: str, threads: int, block: int,
            buffers: Iterable[Tuple[str, List[int]]],
            scalars: Iterable[Tuple[str, int]] = ()) -> Workload:
    return Workload(
        name=name, suite="ledger", description=description, source=source,
        grid=threads // block, block=block,
        buffers=tuple(Buffer(n, len(v), init=tuple(v)) for n, v in buffers),
        scalars=tuple(scalars),
    )


class ComputeBound(KernelWorkload):
    """Engine instruction dispatch and nothing else."""

    name = "compute_bound"
    SOURCE = """
__global__ void poly(int* out, int c0, int c1, int iters) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int x = gid * c0 + c1;
    int acc = 0;
    for (int i = 0; i < iters; i = i + 1) {
        acc = acc * 31 + x;
        x = x * 5 + i;
    }
    out[gid] = acc;
}
"""

    def __init__(self, seed: int, scale: str) -> None:
        sizes = SCALES[scale]
        threads, iters = sizes["compute_threads"], sizes["compute_iters"]
        rng = random.Random(f"compute_bound:{seed}")
        c0, c1 = rng.randrange(1, 1 << 15) | 1, rng.randrange(1, 1 << 15)
        self.program = _kernel(
            "compute_bound", self.__doc__, self.SOURCE, threads, 128,
            [("out", [0] * threads)],
            [("c0", c0), ("c1", c1), ("iters", iters)],
        )
        out = []
        for gid in range(threads):
            x, acc = wrap_mul_add(gid, c0, c1), 0
            for i in range(iters):
                acc = wrap_mul_add(acc, 31, x)
                x = wrap_mul_add(x, 5, i)
            out.append(acc)
        self.expected_buffers = {"out": out}


class StreamScale(KernelWorkload):
    """A converged streaming kernel with planted write-write overlaps."""

    name = "stream_scale"
    SOURCE = """
__global__ void saxpy(int* a, int* b, int* dst, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[dst[gid]] = a[gid] * 3 + b[gid];
}
"""

    def __init__(self, seed: int, scale: str) -> None:
        sizes = SCALES[scale]
        threads, planted = sizes["stream_threads"], sizes["stream_planted"]
        rng = random.Random(f"stream_scale:{seed}")
        a = [rng.randrange(1 << 16) for _ in range(threads)]
        b = [rng.randrange(1 << 16) for _ in range(threads)]
        dst = list(range(threads))
        out = [wrap_mul_add(x, 3, y) for x, y in zip(a, b)]
        # A planted overlap: thread ``t`` stores to thread ``u``'s slot.
        # The two live in different warps (an inter-warp write-write
        # race) and store the same value, so the output does not depend
        # on which store lands last.
        warps = rng.sample(range(threads // 32), 2 * planted)
        self.pairs = []
        for w_t, w_u in zip(warps[::2], warps[1::2]):
            t, u = w_t * 32 + rng.randrange(32), w_u * 32 + rng.randrange(32)
            dst[t], a[t], b[t] = u, a[u], b[u]
            out[t] = 0
            self.pairs.append((t, u))
        self.program = _kernel(
            "stream_scale", self.__doc__, self.SOURCE, threads, 128,
            [("a", a), ("b", b), ("dst", dst), ("out", [0] * threads)],
        )
        self.expected_buffers = {"out": out}

    def expected(self, params: Dict[str, int]) -> Set[RaceKey]:
        return {
            ("global", -1, params["out"] + 4 * u, tuple(sorted((t, u))),
             ("write", "write"))
            for t, u in self.pairs
        }


class SyncMix(KernelWorkload):
    """Divergence, barriers, atomics, fenced flags and spin-locks."""

    name = "sync_mix"
    BLOCK = 128
    ROUNDS = 2
    SOURCE = """
__global__ void sync_mix(int* in, int* out, int* total, int* flags,
                         int* payload, int* consumed, int* locks,
                         int* counters, int rounds, int rogue) {
    __shared__ int s[128];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    int v = in[gid];
    for (int r = 0; r < rounds; r = r + 1) {
        if ((v & 1) == 0) {
            if ((v & 2) == 0) {
                v = v * 3 + 1;
            } else {
                v = v + 7;
            }
        } else {
            if ((v & 4) == 0) {
                v = v ^ 21;
            }
        }
        s[tid] = v;
        __syncthreads();
        for (int stride = 64; stride > 0; stride = stride >> 1) {
            if (tid < stride) {
                s[tid] = s[tid] + s[tid + stride];
            }
            __syncthreads();
        }
        if (tid == 0) {
            atomicAdd(&total[0], s[0]);
        }
        __syncthreads();
    }
    if (tid == 0) {
        payload[blockIdx.x] = s[0];
        __threadfence();
        atomicExch(&flags[blockIdx.x], 1);
    }
    if (tid == 64) {
        int nb = blockIdx.x - 1;
        if (blockIdx.x == 0) {
            nb = gridDim.x - 1;
        }
        int seen = flags[nb];
        __threadfence();
        if (seen == 1) {
            consumed[blockIdx.x] = payload[nb];
        }
    }
    if (tid % 8 == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&locks[blockIdx.x], 0, 1) == 0) {
                __threadfence_block();
                counters[blockIdx.x] = counters[blockIdx.x] + 1;
                __threadfence_block();
                atomicExch(&locks[blockIdx.x], 0);
                done = 1;
            }
        }
    }
    if (gid == rogue) {
        counters[blockIdx.x] = 0 - 1;
    }
    out[gid] = v;
}
"""

    def __init__(self, seed: int, scale: str) -> None:
        threads = SCALES[scale]["sync_threads"]
        grid = threads // self.BLOCK
        rng = random.Random(f"sync_mix:{seed}")
        values = [rng.randrange(1 << 16) for _ in range(threads)]
        # One rogue thread bumps its block's counter without the lock:
        # the only race in the kernel, and it must be reported.
        rogue = rng.randrange(grid) * self.BLOCK + 33
        self.program = _kernel(
            "sync_mix", self.__doc__, self.SOURCE, threads, self.BLOCK,
            [("in", values), ("out", [0] * threads), ("total", [0] * 4),
             ("flags", [0] * grid), ("payload", [0] * grid),
             ("consumed", [0] * grid), ("locks", [0] * grid),
             ("counters", [0] * grid)],
            [("rounds", self.ROUNDS), ("rogue", rogue)],
        )
        total = 0
        payload = [0] * grid
        for _ in range(self.ROUNDS):
            values = [self._step(v) for v in values]
            for block in range(grid):
                payload[block] = sum(
                    values[block * self.BLOCK:(block + 1) * self.BLOCK]) & MASK32
            total = (total + sum(payload)) & MASK32
        self.expected_buffers = {
            "out": values, "total": [total], "payload": payload,
            "locks": [0] * grid, "flags": [1] * grid,
        }
        #: Set by the warm-up: the reference oracle's reports on the
        #: captured stream.
        self.oracle: Set[RaceKey] = set()

    @staticmethod
    def _step(v: int) -> int:
        if v & 1 == 0:
            return (v * 3 + 1 if v & 2 == 0 else v + 7) & MASK32
        return v ^ 21 if v & 4 == 0 else v

    def warm_up(self) -> None:
        """Capture the stream once and ask the reference oracle about it."""
        self.run_pass(Laps(), capture=True)
        program = self.program
        layout = LaunchConfig.of(program.grid, program.block, 32).layout()
        reports = replay(layout, self.captured, reference=True)
        self.oracle = {race_key(race) for race in reports.races}

    def expected(self, params: Dict[str, int]) -> Set[RaceKey]:
        return self.oracle


# ----------------------------------------------------------------------
# replay_scale
# ----------------------------------------------------------------------
class ReplayScale(LedgerWorkload):
    """Capture bytes -> columnar replay -> rendered report -> capture bytes."""

    name = "replay_scale"
    on_path = ON_PATH_CAPTURE
    BLOCK = 256
    IN_BASE = 0x10000000
    OUT_BASE = 0x20000000

    def __init__(self, seed: int, scale: str) -> None:
        sizes = SCALES[scale]
        blocks, planted = sizes["replay_blocks"], sizes["replay_planted"]
        self.layout = GridLayout(blocks, self.BLOCK)
        rng = random.Random(f"replay_scale:{seed}")
        # A planted pair: in the final global store, ``intruder`` (from
        # another block) writes the victim's slot instead of its own.
        chosen = rng.sample(range(blocks), min(blocks, 2 * planted))
        self.redirect: Dict[int, int] = {}
        for b_victim, b_intruder in zip(chosen[::2], chosen[1::2]):
            victim = b_victim * self.BLOCK + rng.randrange(self.BLOCK)
            intruder = b_intruder * self.BLOCK + rng.randrange(self.BLOCK)
            self.redirect[intruder] = victim
        self.expected_races: Set[RaceKey] = {
            ("global", -1, self.OUT_BASE + 4 * victim,
             tuple(sorted((victim, intruder))), ("write", "write"))
            for intruder, victim in self.redirect.items()
        }
        salt = rng.randrange(1 << 16)
        stream = io.BytesIO()
        self.records = save_capture_binary(
            stream, self.layout, list(self._records(salt)), kernel="replay_scale")
        self.bcap = stream.getvalue()

    def _records(self, salt: int) -> Iterable[LogRecord]:
        """Per warp: global load, shared store, (block barrier), neighbour
        shared load, global store."""
        layout, tpb = self.layout, self.BLOCK
        G, S = Space.GLOBAL, Space.SHARED
        for block in range(layout.num_blocks):
            base = block * tpb
            warps = [
                (base // 32 + w, range(base + w * 32, base + (w + 1) * 32))
                for w in range(tpb // 32)
            ]
            masks = {warp: frozenset(tids) for warp, tids in warps}
            for warp, tids in warps:
                yield LogRecord(
                    RecordKind.LOAD, warp, masks[warp], pc=10,
                    addrs={t: (G, self.IN_BASE + 4 * t) for t in tids})
                yield LogRecord(
                    RecordKind.STORE, warp, masks[warp], pc=11,
                    addrs={t: (S, 4 * (t - base)) for t in tids},
                    values={t: (t * 7 + salt) & MASK32 for t in tids})
            yield LogRecord(
                RecordKind.BARRIER, block, frozenset(range(base, base + tpb)), pc=12)
            for warp, tids in warps:
                yield LogRecord(
                    RecordKind.LOAD, warp, masks[warp], pc=13,
                    addrs={t: (S, 4 * ((t - base + 1) % tpb)) for t in tids})
                yield LogRecord(
                    RecordKind.STORE, warp, masks[warp], pc=14,
                    addrs={t: (G, self.OUT_BASE + 4 * self.redirect.get(t, t))
                           for t in tids},
                    values={t: (t * 3 + salt) & MASK32 for t in tids})

    def run_pass(self, laps: Laps) -> PassResult:
        result = PassResult(records=self.records)
        layout, kernel, batches = load_capture_binary(io.BytesIO(self.bcap))
        laps.mark()
        reports = replay_batches(layout, laps.each(batches))
        rendered = render(reports)
        found = check_races(result, reports, self.expected_races)
        # Read beside write: the same records go back out as a capture.
        records = [record for batch in laps.each(batches)
                   for record in batch.to_records()]
        stream = io.BytesIO()
        written = save_capture_binary(stream, layout, records, kernel=kernel)
        result.check(stream.getvalue() == self.bcap)
        result.counts = {
            "records": written,
            "races": len(reports.races),
            "rendered_lines": len(rendered),
            "bcap_bytes": stream.tell(),
        }
        result.digest = crc((sorted(found), zlib.crc32(self.bcap)))
        return result

    def traced_pass(self, trace: LayerTrace) -> None:
        trace.capture(self.bcap)


WORKLOADS = {
    cls.name: cls
    for cls in (SuiteSweep, ComputeBound, StreamScale, SyncMix, ReplayScale)
}
