"""Reference implementations that production code is held to.

``per_record_oracle``: ``record_to_ops`` → ``BarracudaDetector.process``
is the specification of the fused ``process_columnar`` loop; no
production path runs it record by record any more.

``reference_launch``: the launch loop that rescans every warp, every
block and every store queue on each step is the specification of
``GpuDevice.launch``'s incremental one; it exists only here.
"""

from repro.core.detector import BarracudaDetector
from repro.core.reference import DetectorConfig
from repro.errors import DeadlockError, StepLimitExceeded
from repro.events import GRID_BARRIER_BLOCK, LogRecord, RecordKind, record_to_ops
from repro.gpu.device import DEFAULT_MAX_STEPS, GpuDevice
from repro.gpu.engine import DEFAULT_ENGINE, resolve_engine
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.scheduler import RoundRobinScheduler


def per_record_oracle(layout, records, config=None) -> BarracudaDetector:
    """Expand every record, ``process`` every op; returns the detector."""
    config = config or DetectorConfig()
    detector = BarracudaDetector(layout, config)
    for record in records:
        for op in record_to_ops(record, layout, config.granularity_bytes):
            detector.process(op)
    return detector


# ----------------------------------------------------------------------
# The launch-loop oracle
# ----------------------------------------------------------------------
def _release_barriers_all_blocks(execution) -> bool:
    """The rescanning release: every warp and every block, from flags
    alone (it neither reads nor keeps the execution's waiting counts)."""
    if not any(w.at_barrier for w in execution.warps):
        return False

    def emit_barrier(block, arrived):
        if execution.sink is None or not execution.instrumented:
            return
        masks = [execution.frozen_active(w.frame.stack[-1]) for w in arrived]
        record = LogRecord(
            kind=RecordKind.BARRIER, warp=block, active=frozenset().union(*masks)
        )
        arrived[0].cycles += execution.sink.emit(record)
        execution.result.records_emitted += 1

    live_all = [w for w in execution.warps if not w.done]
    if live_all and all(w.at_barrier and w.at_grid_barrier for w in live_all):
        emit_barrier(GRID_BARRIER_BLOCK, live_all)
        for w in live_all:
            w.at_barrier = False
            w.at_grid_barrier = False
        return True
    released = False
    for block in range(execution.layout.num_blocks):
        warps = [execution.warps[w] for w in execution.layout.block_warps(block)]
        live = [w for w in warps if not w.done]
        if live and all(w.at_barrier and not w.at_grid_barrier for w in live):
            emit_barrier(block, live)
            for w in live:
                w.at_barrier = False
            released = True
    return released


def reference_launch(
    device: GpuDevice,
    module,
    kernel_name: str,
    grid,
    block,
    params=None,
    warp_size: int = 32,
    sink=None,
    instrumented: bool = False,
    scheduler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = DEFAULT_ENGINE,
    cooperative: bool = False,
):
    """``GpuDevice.launch`` as it was before the launch loop went
    incremental: every iteration re-derives the runnable set from all
    warps, re-checks every block's barrier, and the steady store drain
    visits every block of the grid.  Same arguments, same result; the
    specification ``tests/test_launch_loop.py`` holds the device to.
    """
    if module not in device._loaded_modules:
        device.load_module(module)
    execution = resolve_engine(engine)(
        module=module,
        kernel=module.kernel(kernel_name),
        config=LaunchConfig.of(grid, block, warp_size),
        params=params or {},
        global_mem=device.global_mem,
        global_symbols=device.global_symbols,
        sink=sink,
        instrumented=instrumented,
        cooperative=cooperative,
    )
    scheduler = scheduler or RoundRobinScheduler()
    memory = device.global_mem

    def drain_every_block(num_blocks: int) -> None:
        for queue_block in range(num_blocks):
            memory.drain_one(queue_block)

    memory.drain_heads = drain_every_block  # shadows the method
    try:
        steps = 0
        while True:
            _release_barriers_all_blocks(execution)
            runnable = [
                w for w in execution.warps if not w.done and not w.at_barrier
            ]
            if not runnable:
                if all(w.done for w in execution.warps):
                    break
                raise DeadlockError(
                    f"kernel {kernel_name!r}: no warp can make progress"
                )
            execution.step(scheduler.pick(runnable))
            scheduler.after_step(execution)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(
                    f"kernel {kernel_name!r} exceeded {max_steps} steps; "
                    "likely a hang (spinlock never released?)"
                )
    finally:
        del memory.drain_heads
    memory.drain_all()
    execution.result.steps = steps
    return execution.result
