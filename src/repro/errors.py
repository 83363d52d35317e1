"""Exception hierarchy for the BARRACUDA reproduction.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PTXSyntaxError(ReproError):
    """Raised when PTX source text cannot be lexed or parsed.

    Carries the source location so tooling can point at the offending text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CudaCSyntaxError(ReproError):
    """Raised when mini-CUDA-C source cannot be lexed or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CudaCTypeError(ReproError):
    """Raised for semantic errors in mini-CUDA-C programs."""


class SimulationError(ReproError):
    """Raised when the GPU simulator reaches an illegal state."""


class LaunchConfigError(SimulationError):
    """Raised for invalid kernel launch configurations."""


class DeadlockError(SimulationError):
    """Raised when the simulator detects that no warp can make progress."""


class StepLimitExceeded(SimulationError):
    """Raised when a simulated kernel exceeds its step budget.

    This is how the warp-serializing baseline scheduler surfaces spinlock
    hangs (the behaviour CUDA-Racecheck exhibits on the lock tests in the
    paper's concurrency suite).
    """


class ScheduleDivergence(SimulationError):
    """Raised when a recorded witness schedule cannot be replayed.

    A :class:`~repro.gpu.scheduler.ReplayScheduler` raises this when the
    warp its decision trace names is not runnable at that step (or the
    trace is exhausted while warps still run) — the execution being
    replayed has diverged from the one that was recorded, so the witness
    does not apply."""


class InstrumentationError(ReproError):
    """Raised when the binary instrumentation engine cannot rewrite PTX."""


class QueueError(ReproError):
    """Raised on misuse of the GPU-to-host event queues."""


class ProtocolError(ReproError):
    """Raised on malformed frames, malformed payloads or protocol misuse."""


class TraceError(ReproError):
    """Raised when a trace is infeasible per §3.1 of the paper."""
