"""The simulated GPU device: module loading and kernel launching.

This stands in for the physical GPU of the paper's testbed (a GTX Titan X
by default; the litmus experiments also use the Kepler K520 profile).
Kernels run through :class:`repro.gpu.interpreter.KernelExecution` under
a pluggable scheduler; global memory persists across launches so
multi-kernel applications (and host-side result checks) work naturally.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import DeadlockError, StepLimitExceeded
from ..obs import NULL_OBS, Observability
from ..ptx.ast import Module
from .hierarchy import LaunchConfig
from .interpreter import EventSink, KernelExecution, LaunchResult, WarpState
from .memory import ArchProfile, GlobalMemory, MAXWELL_TITANX
from .scheduler import RoundRobinScheduler, Scheduler

#: Default per-launch step budget; generous for benchmarks, small enough
#: to surface hangs (spinlocks under a serializing scheduler) quickly.
DEFAULT_MAX_STEPS = 4_000_000


def _position(runnable: List[WarpState], warp: int) -> int:
    """The index of warp id ``warp`` in ``runnable``, ascending by warp
    id (``bisect`` takes no ``key=`` before Python 3.10)."""
    lo, hi = 0, len(runnable)
    while lo < hi:
        mid = (lo + hi) // 2
        if runnable[mid].warp < warp:
            lo = mid + 1
        else:
            hi = mid
    return lo


class GpuDevice:
    """One simulated GPU with persistent global memory."""

    def __init__(self, arch: ArchProfile = MAXWELL_TITANX) -> None:
        self.arch = arch
        self.global_mem = GlobalMemory(arch)
        self.global_symbols: Dict[str, int] = {}
        self._loaded_modules: List[Module] = []

    # ------------------------------------------------------------------
    # Host-side API (the cuda* entry points of a real runtime)
    # ------------------------------------------------------------------
    def load_module(self, module: Module) -> None:
        """Allocate the module's ``.global`` arrays (allocations are
        zeroed)."""
        self._loaded_modules.append(module)
        for decl in module.globals:
            if decl.name not in self.global_symbols:
                self.global_symbols[decl.name] = self.global_mem.alloc(
                    decl.size_bytes, decl.align)

    def alloc(self, size: int, align: int = 8) -> int:
        """``cudaMalloc``: allocate device global memory."""
        return self.global_mem.alloc(size, align)

    def memcpy_to_device(self, addr: int, values, width: int = 4) -> None:
        self.global_mem.host_write_array(addr, values, width)

    def memcpy_from_device(self, addr: int, count: int, width: int = 4) -> List[int]:
        return self.global_mem.host_read_array(addr, count, width)

    def reset(self) -> None:
        """``cudaDeviceReset``: drop all device state."""
        self.global_mem = GlobalMemory(self.arch)
        self.global_symbols = {}
        modules, self._loaded_modules = self._loaded_modules, []
        for module in modules:
            self.load_module(module)

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------
    def launch(
        self,
        module: Module,
        kernel_name: str,
        grid,
        block,
        params: Optional[Dict[str, int]] = None,
        warp_size: int = 32,
        sink: Optional[EventSink] = None,
        instrumented: bool = False,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        obs: Observability = NULL_OBS,
        cooperative: bool = False,
    ) -> LaunchResult:
        """Run one kernel to completion and return its measurements.

        ``cooperative`` launches the grid cooperatively (every block
        resident at once), which is what makes grid-wide
        ``barrier.cluster`` synchronization legal.

        Raises :class:`StepLimitExceeded` if the kernel does not finish
        within ``max_steps`` warp-instruction slots (e.g. a spinlock that
        never observes its release) and :class:`DeadlockError` if no warp
        can make progress.
        """
        if module not in self._loaded_modules:
            self.load_module(module)
        kernel = module.kernel(kernel_name)
        config = LaunchConfig.of(grid, block, warp_size)
        execution = KernelExecution(
            module=module,
            kernel=kernel,
            config=config,
            params=params or {},
            global_mem=self.global_mem,
            global_symbols=self.global_symbols,
            sink=sink,
            instrumented=instrumented,
            cooperative=cooperative,
        )
        if obs.profiler.enabled:
            # Hot-path profiling: each closure is wrapped at decode time.
            execution.profiler = obs.profiler
        scheduler = scheduler or RoundRobinScheduler()
        tracer = obs.tracer
        tracing = tracer.enabled
        steps = 0
        warps = execution.warps
        try_release_barriers = execution.try_release_barriers
        step = execution.step
        pick = scheduler.pick
        after_step = scheduler.after_step
        # The runnable set, ascending by warp id as ``Scheduler.pick``
        # documents.  Only the warp that just stepped can leave it and
        # only a barrier release can add to it, so it is edited in place;
        # nothing rescans the grid per step or per release.
        runnable = [w for w in warps if not w.done and not w.at_barrier]
        execute = tracer.span("execute", kernel=kernel_name,
                              instrumented=instrumented)
        with execute:
            while runnable:
                warp = pick(runnable)
                if tracing:
                    with tracer.span("warp-step", track=f"warp-{warp.warp}",
                                     block=warp.block):
                        step(warp)
                else:
                    step(warp)
                after_step(execution)
                steps += 1
                if steps > max_steps:
                    raise StepLimitExceeded(
                        f"kernel {kernel_name!r} exceeded {max_steps} steps; "
                        "likely a hang (spinlock never released?)"
                    )
                if warp.done or warp.at_barrier:
                    # The warps a release returns take ``warp``'s place:
                    # its block's live warps (contiguous ids, none other
                    # runnable), or for the grid barrier every live warp
                    # (``warp`` was the only runnable one: a full rebuild).
                    index = _position(runnable, warp.warp)
                    runnable[index:index + 1] = try_release_barriers(warp)
            if not all(w.done for w in warps):
                raise DeadlockError(
                    f"kernel {kernel_name!r}: no warp can make progress"
                )
            # Kernel completion is a device-wide synchronization point: all
            # pending stores become visible to the host and later kernels.
            self.global_mem.drain_all()
            execution.result.steps = steps
            execute.annotate(steps=steps)
        if obs.metrics.enabled:
            obs.metrics.counter(
                "repro_interpreter_steps_total",
                "Warp-instruction steps executed by the simulated device",
            ).inc(steps)
        return execution.result
