"""The simulated GPU: thread hierarchy, memory model, SIMT interpreter."""

from .device import DEFAULT_MAX_STEPS, GpuDevice
from .hierarchy import Dim3, LaunchConfig
from .interpreter import (
    EventSink,
    ExecContext,
    KernelExecution,
    LaunchResult,
    ListSink,
    LOG_COST,
    WarpState,
)
from .memory import (
    ArchProfile,
    ByteStore,
    GlobalMemory,
    KEPLER_K520,
    MAXWELL_TITANX,
    SharedMemory,
)
from .scheduler import (
    BarrierShuffleScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    SCHEDULER_KINDS,
    SWEEP_KINDS,
    Scheduler,
    StoreDrainScheduler,
    SweepScheduler,
    WarpOrderScheduler,
    WarpSerializingScheduler,
    make_scheduler,
)
