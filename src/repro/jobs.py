"""The job layer: each thing the front doors run is stated once, here.

Two statements.  **A launch**: :class:`LaunchSpec` describes one kernel
launch self-containedly (:meth:`LaunchSpec.compile` is the one body of
"source text → module") and :func:`launch_spec` is the only place that
turns a description into a session, initialised buffers and a
``session.launch`` — the CLI subcommands, the sweep and repair stages,
the suite and the Table-1 workloads all go through it.
:func:`record_stream` is its detector-less sibling — raw device, every
log record kept — for the baselines and the profiling analyses.
**A staged job**: :class:`StagedJob` is the
shape SWEEP and FIX share — validate the request, optionally plan, fan
out items, fold dead items, finalize — instantiated beside the stage
functions (:data:`repro.predict.sweep.JOB`, :data:`repro.fix.driver.JOB`).
``StagedJob.run`` runs every stage in this process; the service runs the
same stages through one handler, one worker entry point and one
``submit_stage``, so local = inline = sharded because there is nothing
else to run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .cudac import compile_cuda
from .errors import ReproError
from .events import LogRecord
from .gpu.device import GpuDevice
from .gpu.hierarchy import LaunchConfig
from .gpu.interpreter import ListSink
from .gpu.memory import KEPLER_K520, MAXWELL_TITANX, ArchProfile
from .instrument.passes import Instrumenter
from .obs import NULL_OBS, Observability
from .ptx import parse_ptx
from .ptx.ast import Module
from .runtime.session import BarracudaSession, SessionLaunch
from .trace.layout import GridLayout

ARCHES: Dict[str, ArchProfile] = {"titanx": MAXWELL_TITANX, "k520": KEPLER_K520}


# ----------------------------------------------------------------------
# A launch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaunchSpec:
    """A self-contained, serializable description of one kernel launch.

    Everything a worker process needs to re-create the launch from
    scratch: source text, geometry, buffer initialization, scalars, and
    the architecture profile.  This is what travels in ``SWEEP`` frames.
    """

    source: str
    kernel: str = ""  # empty = first kernel of the module
    is_ptx: bool = False
    grid: int = 1
    block: int = 32
    warp_size: int = 32
    #: (name, words, leading init values) per device int buffer.
    buffers: Tuple[Tuple[str, int, Tuple[int, ...]], ...] = ()
    scalars: Tuple[Tuple[str, int], ...] = ()
    arch: str = "titanx"
    max_steps: int = 400_000
    #: Cooperative launch: permits grid-wide sync (barrier.cluster).
    cooperative: bool = False

    def __post_init__(self) -> None:
        if self.arch not in ARCHES:
            raise ReproError(
                f"unknown arch {self.arch!r} (choose from {sorted(ARCHES)})"
            )

    def compile(self) -> Module:
        if self.is_ptx:
            return parse_ptx(self.source)
        return compile_cuda(self.source)

    def layout(self):
        return LaunchConfig.of(self.grid, self.block, self.warp_size).layout()

    @classmethod
    def from_program(cls, program) -> "LaunchSpec":
        """Build a spec from a :class:`repro.suite.SuiteProgram` or a
        :class:`repro.bench.Workload` (their cached ``spec`` property)."""
        return cls(
            source=program.source,
            kernel="",
            is_ptx=program.is_ptx,
            grid=program.grid,
            block=program.block,
            warp_size=program.warp_size,
            buffers=tuple(
                (b.name, b.words, tuple(b.init)) for b in program.buffers
            ),
            scalars=tuple(program.scalars),
            arch=getattr(program, "arch", "titanx"),
            max_steps=program.max_steps,
            cooperative=getattr(program, "cooperative", False),
        )

    def to_payload(self) -> dict:
        return {
            "source": self.source,
            "kernel": self.kernel,
            "is_ptx": self.is_ptx,
            "grid": self.grid,
            "block": self.block,
            "warp_size": self.warp_size,
            "buffers": [
                [name, words, list(init)] for name, words, init in self.buffers
            ],
            "scalars": [[name, value] for name, value in self.scalars],
            "arch": self.arch,
            "max_steps": self.max_steps,
            "cooperative": self.cooperative,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LaunchSpec":
        try:
            return cls(
                source=str(payload["source"]),
                kernel=str(payload.get("kernel", "")),
                is_ptx=bool(payload.get("is_ptx", False)),
                grid=int(payload.get("grid", 1)),
                block=int(payload.get("block", 32)),
                warp_size=int(payload.get("warp_size", 32)),
                buffers=tuple(
                    (str(name), int(words), tuple(int(v) for v in init))
                    for name, words, init in payload.get("buffers", [])
                ),
                scalars=tuple(
                    (str(name), int(value))
                    for name, value in payload.get("scalars", [])
                ),
                arch=str(payload.get("arch", "titanx")),
                max_steps=int(payload.get("max_steps", 400_000)),
                cooperative=bool(payload.get("cooperative", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed launch spec: {exc}") from exc


def alloc_buffers(
    device, buffers: Iterable[Tuple[str, int, Iterable[int]]]
) -> Dict[str, int]:
    """Allocate each ``(name, words, leading init values)`` int buffer,
    zero-filled past its init values; returns name -> device address."""
    params: Dict[str, int] = {}
    for name, words, init in buffers:
        addr = device.alloc(words * 4)
        values = list(init) + [0] * (words - len(init))
        device.memcpy_to_device(addr, values[:words])
        params[name] = addr
    return params


@dataclass
class Launched:
    """One executed :class:`LaunchSpec`.  The session stays reachable for
    what callers read after the launch: instrumentation reports, the
    pristine module, the device buffers."""

    spec: LaunchSpec
    session: BarracudaSession
    module: Module  # as compiled; the session parsed its own copy back
    handle: int
    kernel: str
    buffers: Dict[str, int]  # parameter name -> device address
    launch: SessionLaunch

    def read_buffers(self) -> Dict[str, List[int]]:
        """Every device buffer's current contents, by parameter name."""
        device = self.session.device
        return {
            name: list(device.memcpy_from_device(self.buffers[name], words))
            for name, words, _init in self.spec.buffers
        }


def launch_spec(
    spec: LaunchSpec,
    scheduler=None,
    capture: bool = False,
    obs: Observability = NULL_OBS,
    session: Optional[BarracudaSession] = None,
    compare_native: bool = False,
    **session_options,
) -> Launched:
    """Compile ``spec``, register it with a session, allocate and
    initialise its buffers, and launch it.

    The session is the caller's ``session`` or a fresh one built from
    ``obs`` and ``session_options`` (:class:`BarracudaSession` arguments:
    ``detector_config``, ``prune``, ``static_prune``, ``faults``)."""
    if session is None:
        session = BarracudaSession(arch=ARCHES[spec.arch], obs=obs,
                                   **session_options)
    with session.obs.tracer.span("cuda-frontend"):
        module = spec.compile()
    handle = session.register_module(module)
    kernel = spec.kernel or module.kernels[0].name
    buffers = alloc_buffers(session.device, spec.buffers)
    launch = session.launch(
        kernel,
        grid=spec.grid,
        block=spec.block,
        warp_size=spec.warp_size,
        params={**buffers, **dict(spec.scalars)},
        scheduler=scheduler,
        max_steps=spec.max_steps,
        compare_native=compare_native,
        capture_records=capture,
        cooperative=spec.cooperative,
    )
    return Launched(spec, session, module, handle, kernel, buffers, launch)


def record_stream(
    spec: LaunchSpec,
    module: Optional[Module] = None,
    scheduler=None,
) -> Tuple[GridLayout, List[LogRecord]]:
    """The detector-less launch: instrument ``spec``, run it on a raw
    device and return the layout with every log record emitted.

    What the baseline detectors and the profiling analyses consume.
    ``module`` stands in for ``spec.compile()`` when the caller already
    holds the compiled module (its line numbers are the records' pcs).
    Pruning is off: these consumers want every access, whereas the race
    detector can exploit redundancy."""
    module = module or spec.compile()
    instrumented, _report = Instrumenter(prune=False).instrument_module(module)
    device = GpuDevice(ARCHES[spec.arch])
    device.load_module(instrumented)
    buffers = alloc_buffers(device, spec.buffers)
    sink = ListSink()
    device.launch(
        instrumented,
        spec.kernel or module.kernels[0].name,
        grid=spec.grid,
        block=spec.block,
        warp_size=spec.warp_size,
        params={**buffers, **dict(spec.scalars)},
        sink=sink,
        instrumented=True,
        scheduler=scheduler,
        max_steps=spec.max_steps,
        cooperative=spec.cooperative,
    )
    return spec.layout(), sink.records


# ----------------------------------------------------------------------
# A staged job
# ----------------------------------------------------------------------
#: Verb -> module holding that job's ``JOB``; imported on first use so a
#: service that only streams records never loads predict/fix/staticcheck.
STAGED_JOB_MODULES = {"sweep": "repro.predict.sweep", "fix": "repro.fix.driver"}


def staged_job(name: str) -> "StagedJob":
    return importlib.import_module(STAGED_JOB_MODULES[name]).JOB


@dataclass(frozen=True)
class StagedJob:
    """validate request → optional plan → fan out items → fold dead items
    → finalize.  Stages map picklable values to JSON-safe payloads, so any
    of them can run in this process or on a shard worker."""

    #: The verb; prefixes every span and flight event of the job.
    name: str
    #: Frozen request dataclass: ``spec`` then integer fields, a lower
    #: bound in ``metadata["min"]``, the wire default as the default.
    request: type
    #: Names the per-item span and failure event: ``<name>-<item_stage>``.
    item_stage: str
    count: Callable  # (request, plan) -> number of fan-out items
    item: Callable  # (request, plan, index, obs) -> item payload
    #: (request, plan, index, reason) -> the payload a crashed or
    #: timed-out item folds to, so casualties degrade the result
    #: deterministically instead of failing the job.
    failed_item: Callable
    finalize: Callable  # (request, plan, item payloads, obs) -> result
    #: request -> simulated launches one stage may run (scales watchdogs).
    watchdog_scale: Callable
    plan: Optional[Callable] = None  # (request, obs) -> plan payload

    def parse(self, message: dict):
        """The one request validation, for argv and wire alike."""
        spec = message.get("spec")
        if not isinstance(spec, dict):
            raise ReproError(f"{self.name} needs a launch spec payload")
        values = {}
        for spec_field in fields(self.request)[1:]:
            name = spec_field.name
            try:
                values[name] = int(message.get(name, spec_field.default))
            except (TypeError, ValueError):
                raise ReproError(
                    f"{self.name} {name} must be an integer") from None
            minimum = spec_field.metadata.get("min")
            if minimum is not None and values[name] < minimum:
                raise ReproError(f"--{name.replace('_', '-')} must be at "
                                 f"least {minimum}")
        return self.request(LaunchSpec.from_payload(spec), **values)

    def describe(self, request) -> dict:
        """The request's integer fields: span and flight-event arguments."""
        return {f.name: getattr(request, f.name)
                for f in fields(request)[1:]}

    def run_stage(self, stage: str, request, plan: dict, arg,
                  obs: Observability) -> dict:
        """Run one stage under its ``<name>-<stage>`` span; ``arg`` is the
        item index or the item payloads.  A fan-out item whose recorder
        has a remote parent (the server's job span) links back to it."""
        label, links = {}, ()
        if stage == self.item_stage:
            label = {"index": arg}
            links = (obs.tracer.context.parent_span_id,)
        with obs.tracer.span(f"{self.name}-{stage}", links=links, **label):
            if stage == "plan":
                return self.plan(request, obs)
            if stage == "finalize":
                return self.finalize(request, plan, arg, obs)
            return self.item(request, plan, arg, obs)

    def run(self, request, obs: Observability = NULL_OBS) -> dict:
        """Run every stage in this process; returns the result payload."""
        with obs.tracer.span(self.name, **self.describe(request)):
            plan: dict = {}
            if self.plan is not None:
                plan = self.run_stage("plan", request, plan, None, obs)
            items = [self.run_stage(self.item_stage, request, plan, index, obs)
                     for index in range(self.count(request, plan))]
            return self.run_stage("finalize", request, plan, items, obs)
