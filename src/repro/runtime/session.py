"""End-to-end BARRACUDA sessions (the ``LD_PRELOAD`` library, §4).

A :class:`BarracudaSession` plays the role of the injected shared
library: it intercepts fat-binary registration, strips and instruments
the PTX, reserves GPU memory for the event queues, launches kernels on
the simulated device with logging attached, and runs the host-side race
detector over the queues.  ``device_reset`` reproduces the §4.1 care
around ``cudaDeviceReset``: the reset is delayed until the queues are
fully drained, and the session reinitializes on the next call.

For overhead measurements (Figure 10) every registered binary keeps its
pristine module too, so the same kernel can be launched natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..columnar import ColumnarBatch
from ..core.detector import BarracudaDetector
from ..core.races import BarrierDivergenceReport, DetectorReports, RaceReport
from ..core.races import DetectorConfig
from ..errors import InstrumentationError
from ..gpu.device import DEFAULT_MAX_STEPS, GpuDevice
from ..gpu.interpreter import LaunchResult
from ..gpu.memory import ArchProfile, MAXWELL_TITANX
from ..gpu.scheduler import Scheduler
from ..instrument.fatbinary import FatBinary, intercept_fat_binary
from ..instrument.passes import InstrumentationReport, Instrumenter
from ..obs import NULL_OBS, MetricsRegistry, Observability
from ..ptx.ast import Module
from ..trace.layout import GridLayout
from .host import HostDetector, RowSink
from .queue import DEFAULT_CAPACITY, QueueSet, QueueStats
from .replay import RecordingSink
from ..events import LogRecord
from ..gpu.interpreter import EventSink


@dataclass
class SessionLaunch:
    """Everything one monitored launch produced."""

    kernel: str
    native: Optional[LaunchResult]
    instrumented: LaunchResult
    reports: DetectorReports
    records: int
    queue_bytes: int
    #: Per-queue occupancy/stall accounting snapshot of this launch.
    queue_stats: List[QueueStats] = field(default_factory=list)
    #: The batches of the launch's row log — the rows the detector read
    #: — when it ran with ``capture_records=True``; ``None`` otherwise.
    captured: Optional[List[ColumnarBatch]] = None

    @property
    def captured_records(self) -> Optional[List[LogRecord]]:
        """:attr:`captured` as records of views, in row order."""
        if self.captured is None:
            return None
        return [record for batch in self.captured
                for record in batch.to_records()]

    @property
    def races(self) -> List[RaceReport]:
        return self.reports.races

    @property
    def total_stalls(self) -> int:
        return sum(stats.stalls for stats in self.queue_stats)

    @property
    def total_stall_cycles(self) -> int:
        return sum(stats.stall_cycles for stats in self.queue_stats)

    @property
    def max_queue_depth(self) -> int:
        return max((stats.max_depth for stats in self.queue_stats), default=0)

    @property
    def total_wraps(self) -> int:
        return sum(stats.wraps for stats in self.queue_stats)

    @property
    def mean_queue_occupancy(self) -> float:
        """Mean depth across every queue's push/pop samples."""
        samples = sum(stats.depth_samples for stats in self.queue_stats)
        if samples == 0:
            return 0.0
        total = sum(stats.depth_total for stats in self.queue_stats)
        return total / samples

    @property
    def barrier_divergences(self) -> List[BarrierDivergenceReport]:
        return self.reports.barrier_divergences

    @property
    def overhead(self) -> float:
        """Instrumented-to-native cycle ratio (the Figure 10 metric)."""
        if self.native is None or self.native.total_cycles == 0:
            return float("nan")
        return self.instrumented.total_cycles / self.native.total_cycles


def publish_detector_metrics(metrics: MetricsRegistry,
                             detector: BarracudaDetector) -> None:
    """Publish the detector's state (§4.3) and its reports.

    The one place the ``repro_shadow_*``, ``repro_ptvc_warps``,
    ``repro_vector_clock_joins_total``, ``repro_detector_ops_total`` and
    report series come from: a session calls it when a launch's queues
    are drained, ``repro replay`` when the capture is consumed, so the
    two print the same family for the same record stream.
    """
    metrics.counter(
        "repro_detector_ops_total",
        "Trace operations processed by the detector",
    ).inc(detector.ops_processed)
    metrics.counter(
        "repro_vector_clock_joins_total",
        "PTVC join-fork operations (lockstep joins, branches, barriers)",
    ).inc(detector.clocks.joins)
    shadow = detector.shadow.stats
    metrics.gauge(
        "repro_shadow_entries",
        "Stored shadow cells (a coalesced range counts once)",
    ).set(shadow.entries)
    metrics.gauge(
        "repro_shadow_words", "Memory words the stored shadow cells cover"
    ).set(shadow.words)
    metrics.gauge(
        "repro_shadow_range_splits",
        "Cuts made in ranged shadow cells by partial overlaps",
    ).set(shadow.range_splits)
    formats = metrics.gauge(
        "repro_ptvc_warps",
        "Warps per PTVC compression format (Figure 7)",
        ("format",),
    )
    for fmt, count in detector.ptvc_stats().format_counts.items():
        formats.set(count, format=fmt.value)
    reports = detector.reports
    races = metrics.counter(
        "repro_races_total", "Races reported, by classification", ("kind",)
    )
    for race in reports.races:
        races.inc(kind=race.kind.value)
    metrics.counter(
        "repro_filtered_same_value_total",
        "Benign same-value intra-warp conflicts filtered (§3.3.1)",
    ).inc(reports.filtered_same_value)
    metrics.counter(
        "repro_barrier_divergences_total",
        "Barrier divergence errors reported",
    ).inc(len(reports.barrier_divergences))


class BarracudaSession:
    """One process running under the BARRACUDA shared library."""

    def __init__(
        self,
        arch: ArchProfile = MAXWELL_TITANX,
        num_queues: int = 4,
        queue_capacity: int = DEFAULT_CAPACITY,
        prune: bool = True,
        detector_config: Optional[DetectorConfig] = None,
        obs: Observability = NULL_OBS,
        static_prune: bool = False,
        faults=None,
    ) -> None:
        # Fault injection (repro.faults): a FaultPlan is instantiated
        # into one session-lifetime injector; an injector passes through.
        from ..faults import FaultInjector, FaultPlan, NULL_FAULTS

        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, obs=obs)
        self.faults = faults if faults is not None else NULL_FAULTS
        self.device = GpuDevice(arch)
        self.num_queues = num_queues
        self.queue_capacity = queue_capacity
        self.instrumenter = Instrumenter(prune=prune, static_prune=static_prune)
        self.detector_config = detector_config
        self.obs = obs
        # handle -> (pristine module, instrumented module, report)
        self._binaries: Dict[int, tuple] = {}
        self._next_handle = 1
        self._needs_reinit = False
        self.launches: List[SessionLaunch] = []

    # ------------------------------------------------------------------
    # Registration (the __cudaRegisterFatBinary interception)
    # ------------------------------------------------------------------
    def register_fat_binary(self, fatbin: FatBinary) -> int:
        """Intercept a fat-binary registration; returns a handle."""
        self._maybe_reinit()
        pristine_ptx = fatbin.ptx_entry().decompress_ptx()
        from ..ptx.parser import parse_ptx_cached

        with self.obs.tracer.span("ptx-parse"):
            pristine = parse_ptx_cached(pristine_ptx)
        with self.obs.tracer.span("instrument"):
            _new_fatbin, instrumented, report = intercept_fat_binary(
                fatbin, self.instrumenter
            )
        if self.obs.metrics.enabled:
            self._publish_instrumentation_metrics(pristine, report)
        handle = self._next_handle
        self._next_handle += 1
        self._binaries[handle] = (pristine, instrumented, report)
        self.device.load_module(instrumented)
        return handle

    def register_module(self, module: Module) -> int:
        """Convenience: register a module as nvcc's fat binary would be."""
        return self.register_fat_binary(FatBinary.from_module(module))

    def instrumentation_report(self, handle: int) -> InstrumentationReport:
        return self._binaries[handle][2]

    def pristine_module(self, handle: int) -> Module:
        """The registered module as parsed back from its PTX text.

        Its instruction ``line`` numbers are the PTX source locations
        that log records (and therefore race reports) carry in ``pc``.
        """
        return self._binaries[handle][0]

    def _find_handle(self, kernel_name: str) -> int:
        for handle, (pristine, _instrumented, _report) in self._binaries.items():
            if any(k.name == kernel_name for k in pristine.kernels):
                return handle
        raise InstrumentationError(f"no registered binary has kernel {kernel_name!r}")

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel_name: str,
        grid,
        block,
        params: Optional[Dict[str, int]] = None,
        warp_size: int = 32,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        compare_native: bool = False,
        capture_records: bool = False,
        cooperative: bool = False,
    ) -> SessionLaunch:
        """Launch a kernel under race detection.

        ``cooperative`` requests a cooperative launch (every block
        resident), which legalizes grid-wide ``barrier.cluster`` sync.

        With ``compare_native`` the pristine kernel runs first against a
        snapshot of device global memory, which is restored before the
        monitored run so both executions observe identical initial state
        (the Figure 10 native-vs-instrumented comparison).

        With ``capture_records`` the launch keeps its row log's batches
        (``SessionLaunch.captured``), read as records through
        ``SessionLaunch.captured_records`` — the event stream the
        differential engine tests compare.
        """
        self._maybe_reinit()
        handle = self._find_handle(kernel_name)
        pristine, instrumented, _report = self._binaries[handle]
        native_result: Optional[LaunchResult] = None
        if compare_native:
            image = self.device.global_mem.snapshot()
            native_result = self.device.launch(
                pristine,
                kernel_name,
                grid,
                block,
                params=params,
                warp_size=warp_size,
                max_steps=max_steps,
                cooperative=cooperative,
            )
            self.device.global_mem.restore(image)
        from ..gpu.hierarchy import LaunchConfig

        layout: GridLayout = LaunchConfig.of(grid, block, warp_size).layout()
        host = HostDetector(layout, config=self.detector_config)
        queues = QueueSet(
            num_queues=self.num_queues,
            capacity=self.queue_capacity,
            on_full=lambda queue_set, index: host.drain_some(queue_set, index),
            faults=self.faults,
        )
        # The queues carry row numbers; the records stay in the launch's
        # row log until the host reads them by range.
        sink: EventSink = RowSink(queues, host)
        recording: Optional[RecordingSink] = None
        if capture_records:
            recording = RecordingSink(sink)
            sink = recording
        result = self.device.launch(
            instrumented,
            kernel_name,
            grid,
            block,
            params=params,
            warp_size=warp_size,
            sink=sink,
            instrumented=True,
            scheduler=scheduler,
            max_steps=max_steps,
            obs=self.obs,
            cooperative=cooperative,
        )
        with self.obs.tracer.span("queue-drain", kernel=kernel_name):
            host.drain(queues)
        if host.rows is not None:
            # The finished launch is a reference cycle that holds its row
            # log until the collector runs; the batches need not wait.
            host.rows.close()
        launch = SessionLaunch(
            kernel=kernel_name,
            native=native_result,
            instrumented=result,
            reports=host.reports,
            records=queues.total_pushed,
            queue_bytes=queues.total_bytes,
            queue_stats=[queue.stats for queue in queues.queues],
            captured=recording.batches if recording is not None else None,
        )
        self.launches.append(launch)
        if self.obs.metrics.enabled:
            self._publish_launch_metrics(launch)
            publish_detector_metrics(self.obs.metrics, host.detector)
        return launch

    # ------------------------------------------------------------------
    # Metrics publication: readings of the stage's state, once at its end
    # ------------------------------------------------------------------
    def _publish_instrumentation_metrics(
        self, pristine: Module, report: InstrumentationReport
    ) -> None:
        metrics = self.obs.metrics
        static = metrics.gauge(
            "repro_static_instructions",
            "Static PTX instructions per registered kernel",
            ("kernel",),
        )
        sites = metrics.gauge(
            "repro_instrumented_sites",
            "Instrumented logging sites per registered kernel",
            ("kernel",),
        )
        for kernel in report.kernels:
            static.set(kernel.static_instructions, kernel=kernel.name)
            sites.set(kernel.instrumented_sites, kernel=kernel.name)

    def _publish_launch_metrics(self, launch: SessionLaunch) -> None:
        """The queue half of a launch's state (§4.2), from its QueueStats."""
        metrics = self.obs.metrics
        metrics.counter(
            "repro_records_logged_total",
            "Log records pushed through the GPU-to-host queues",
        ).inc(launch.records)
        metrics.counter(
            "repro_queue_stalls_total",
            "Producer stalls on full queues",
        ).inc(launch.total_stalls)
        metrics.counter(
            "repro_queue_stall_cycles_total",
            "Cycles producers spent stalled on full queues",
        ).inc(launch.total_stall_cycles)
        metrics.counter(
            "repro_queue_wraps_total",
            "Completed ring revolutions across all queues",
        ).inc(launch.total_wraps)
        metrics.gauge(
            "repro_queue_mean_occupancy",
            "Mean queue depth across push/pop samples of the last launch",
        ).set(launch.mean_queue_occupancy)
        metrics.gauge(
            "repro_queue_max_depth",
            "Peak queue depth of the last launch",
        ).set(launch.max_queue_depth)

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------
    def device_reset(self) -> None:
        """``cudaDeviceReset``: delayed until queues are drained (§4.1).

        Our queues are drained synchronously at the end of every launch,
        so the delay is trivially satisfied; the reinit flag is still
        raised so the next CUDA call reinitializes BARRACUDA state.
        """
        self.device.reset()
        self._needs_reinit = True

    def _maybe_reinit(self) -> None:
        if self._needs_reinit:
            self._needs_reinit = False
            for _handle, (_pristine, instrumented, _report) in self._binaries.items():
                self.device.load_module(instrumented)

    # ------------------------------------------------------------------
    # Aggregate results
    # ------------------------------------------------------------------
    @property
    def all_races(self) -> List[RaceReport]:
        return [race for launch in self.launches for race in launch.races]
