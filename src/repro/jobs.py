"""The job layer: each thing the front doors run is stated once, here.

Two statements.  **A launch**: :class:`LaunchSpec` describes one kernel
launch self-containedly (:meth:`LaunchSpec.compile` is the one body of
"source text → module") and :func:`launch_spec` is the only place that
turns a description into a session, initialised buffers and a
``session.launch`` — the CLI subcommands, the sweep and repair stages,
the suite and the Table-1 workloads all go through it.
:func:`record_stream` is its detector-less sibling — raw device, every
log record kept — for the baselines and the profiling analyses.
The launch flags are declared once (:func:`add_launch_args`) and read
from argv or from a kernel file's ``// repro-launch:`` header lines
(:func:`read_kernel_file`, the one reader of a kernel file); the suite
and Table-1 registries are the corpus files (:func:`load_corpus`).
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

import argparse
import importlib
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
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
from .ptx.ast import Kernel, Module
from .runtime.session import BarracudaSession, SessionLaunch
from .trace.layout import GridLayout

ARCHES: Dict[str, ArchProfile] = {"titanx": MAXWELL_TITANX, "k520": KEPLER_K520}


# ----------------------------------------------------------------------
# A launch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Buffer:
    """One device buffer parameter: allocated and initialized per run.
    The launch it reaches (:class:`LaunchSpec`) checks that its init
    values fit its words."""

    name: str
    words: int
    init: Tuple[int, ...] = ()  # leading words; rest zeroed


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
        if self.max_steps < 1:
            # No budget at all would report every kernel as a hang.
            raise ReproError(
                f"--max-steps must be at least 1, not {self.max_steps}")
        # Refuse a launch its flags would silently change: a buffer with
        # more init values than words, or a parameter bound twice.
        for name, words, init in self.buffers:
            if len(init) > words:
                raise ReproError(f"--buffer {name}: {len(init)} init values "
                                 f"for {words} words")
        bound = set()
        for flag, name in ([("--buffer", name) for name, _w, _i in self.buffers]
                           + [("--scalar", name) for name, _v in self.scalars]):
            if name in bound:
                raise ReproError(f"{flag} {name}: parameter {name!r} is "
                                 "already bound")
            bound.add(name)

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


def launched_kernel(spec: LaunchSpec, module: Module) -> Kernel:
    """The kernel ``spec`` launches, checked to declare every parameter
    the spec binds: a ``--buffer`` or ``--scalar`` naming no parameter
    would be silently ignored.  An unbound parameter stays legal (a
    pointer reads as null)."""
    try:
        kernel = module.kernel(spec.kernel) if spec.kernel else module.kernels[0]
    except KeyError:
        raise ReproError(f"--kernel {spec.kernel}: the module has no kernel "
                         f"named {spec.kernel!r}") from None
    declared = {param.name for param in kernel.params}
    for flag, bound in (("--buffer", spec.buffers), ("--scalar", spec.scalars)):
        for name, *_value in bound:
            if name not in declared:
                raise ReproError(f"{flag} {name}: kernel {kernel.name} has "
                                 f"no parameter {name!r}")
    return kernel


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
    kernel = launched_kernel(spec, module).name
    handle = session.register_module(module)
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
    kernel = launched_kernel(spec, module).name
    instrumented, _report = Instrumenter(prune=False).instrument_module(module)
    device = GpuDevice(ARCHES[spec.arch])
    device.load_module(instrumented)
    buffers = alloc_buffers(device, spec.buffers)
    sink = ListSink()
    device.launch(
        instrumented,
        kernel,
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
# Launch flags and kernel files
# ----------------------------------------------------------------------
def _parse_buffer(spec: str) -> Tuple[str, int, Tuple[int, ...]]:
    """``name:words[:v0,v1,...]`` → (name, words, leading init values)."""
    parts = spec.split(":")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            f"buffer spec {spec!r} must be name:words[:v0,v1,...]"
        )
    name = parts[0]
    try:
        words = int(parts[1], 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad word count in {spec!r}") from exc
    init: Tuple[int, ...] = ()
    if len(parts) > 2 and parts[2]:
        try:
            init = tuple(int(v, 0) for v in parts[2].split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad init values in {spec!r}") from exc
    return name, words, init


def _parse_scalar(spec: str) -> Tuple[str, int]:
    name, _, value = spec.partition(":")
    if not value:
        raise argparse.ArgumentTypeError(f"scalar spec {spec!r} must be name:value")
    return name, int(value, 0)


#: The :class:`LaunchSpec` fields the launch flags fill, one flag each
#: (``--buffer`` fills ``buffers``, ``--warp-size`` ``warp_size``).
LAUNCH_FIELDS = ("kernel", "grid", "block", "warp_size", "buffers", "scalars",
                 "arch", "cooperative", "max_steps")


def _flag(field_name: str) -> str:
    """The launch flag that fills ``field_name``."""
    name = {"buffers": "buffer", "scalars": "scalar"}.get(field_name, field_name)
    return "--" + name.replace("_", "-")


def add_launch_args(parser: argparse.ArgumentParser,
                    max_steps_default: Optional[int] = None,
                    source_help: str = "", **source_options) -> None:
    """The launch flags, on ``parser``: ``repro check``'s and its
    siblings', and a kernel file header's.

    No flag has a default, so the flags given can be told from the rest
    (:func:`launch_fields`).  ``source_help`` adds the kernel-file
    argument first; ``max_steps_default`` is the subcommand's hang budget
    when no ``--max-steps`` is given."""
    if source_help:
        parser.add_argument("source", help=source_help, **source_options)
        parser.set_defaults(max_steps_default=max_steps_default)
    parser.add_argument("--kernel", help="kernel name (default: first in the module)")
    parser.add_argument("--grid", type=int, help="blocks in the grid (default 1)")
    parser.add_argument("--block", type=int, help="threads per block (default 32)")
    parser.add_argument("--warp-size", type=int,
                        help="warp width to simulate (default 32; the paper's "
                        "future-work knob: narrower warps expose latent "
                        "warp-synchronous bugs)")
    parser.add_argument("--buffer", action="append", dest="buffers",
                        type=_parse_buffer, metavar="NAME:WORDS[:V0,V1,...]",
                        help="allocate a device int buffer parameter")
    parser.add_argument("--scalar", action="append", dest="scalars",
                        type=_parse_scalar, metavar="NAME:VALUE",
                        help="pass an integer parameter")
    parser.add_argument("--arch", choices=sorted(ARCHES),
                        help="memory-model profile of the simulated GPU "
                        "(default titanx)")
    parser.add_argument("--cooperative", action="store_const", const=True,
                        help="cooperative launch: permit grid-wide "
                        "synchronization (barrier.cluster / __grid_sync)")
    parser.add_argument("--max-steps", type=int,
                        help=f"hang-detection step budget (default "
                        f"{max_steps_default})")


def launch_fields(args) -> Dict[str, object]:
    """The launch flags ``args`` was given, from argv or a header, as
    :class:`LaunchSpec` fields; a flag not given is left out."""
    given = {}
    for name in LAUNCH_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            given[name] = tuple(value) if isinstance(value, list) else value
    return given


class _HeaderParser(argparse.ArgumentParser):
    """A header line's launch flags: a bad one raises, never exits."""

    def error(self, message: str):
        raise ReproError(message)


_HEADER_PARSER = _HeaderParser(prog="// repro-launch:", add_help=False)
add_launch_args(_HEADER_PARSER)

#: The ``// repro-<key>: value`` lines a kernel file header may hold:
#: launch flags, notes for the reader (repeatable, read by nothing), and
#: the corpus labels (which dataclass field each fills is that
#: dataclass's ``LABELS``).
HEADER_KEYS = frozenset({
    "launch", "note", "expect", "race-space", "category", "description",
    "lint", "lint-exceptions", "suite", "paper-races", "paper-static-insns",
    "paper-threads",
})
_HEADER_PREFIX = "// repro-"


@dataclass(frozen=True)
class KernelFile:
    """A kernel source file: the ``// repro-`` header lines leading it,
    and the source text after them.  A file with no header is all
    source."""

    path: str
    source: str
    #: The header's ``repro-launch`` flags, as :class:`LaunchSpec` fields.
    launch: Dict[str, object]
    #: The first ``repro-launch`` line; 0 when there is none.
    launch_line: int
    #: Label key -> (header line, value).
    labels: Dict[str, Tuple[int, str]]
    #: The line the source starts on.
    source_line: int

    @property
    def is_ptx(self) -> bool:
        return self.path.endswith(".ptx")


def read_kernel_file(path: str) -> KernelFile:
    """The one reader of a kernel file.  Every header line is
    ``// repro-<key>: <value>``; launch lines go through the launch
    flags' own parser (split on whitespace: no launch flag's value holds
    a space, so there is no quoting; launch lines may repeat).  A
    bad line is a :class:`ReproError` naming ``path:line``."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    header = 0
    while header < len(lines) and lines[header].startswith(_HEADER_PREFIX):
        header += 1
    flags = argparse.Namespace()
    launch_line = 0
    labels: Dict[str, Tuple[int, str]] = {}
    for number, line in enumerate(lines[:header], 1):
        key, colon, value = line[len(_HEADER_PREFIX):].partition(":")
        try:
            if not colon:
                raise ReproError("a header line is // repro-<key>: <value>")
            if key not in HEADER_KEYS:
                raise ReproError(f"unknown header key // repro-{key}")
            if key == "launch":
                _HEADER_PARSER.parse_args(value.split(), flags)
                launch_line = launch_line or number
            elif key != "note":
                if key in labels:
                    raise ReproError(f"a second // repro-{key} line")
                labels[key] = (number, value.strip())
        except ReproError as exc:
            raise ReproError(f"{path}:{number}: {exc}") from None
    return KernelFile(path=str(path), source="".join(lines[header:]),
                      launch=launch_fields(flags), launch_line=launch_line,
                      labels=labels, source_line=header + 1)


def spec_from_args(args, kernel_file: KernelFile) -> LaunchSpec:
    """The launch ``args``' flags ask for or, when they give none, the
    header of ``kernel_file``: a flag given nowhere takes
    :class:`LaunchSpec`'s default, ``--max-steps`` the subcommand's."""
    return LaunchSpec(source=kernel_file.source, is_ptx=kernel_file.is_ptx,
                      **{"max_steps": args.max_steps_default,
                         **(launch_fields(args) or kernel_file.launch)})


#: The corpus: ``<kind>/NNN-<name>.cu`` (or ``.ptx``), one entry a file.
CORPUS = Path(__file__).parent / "corpus"
_SPEC_DEFAULTS = LaunchSpec(source="")


def corpus_entry(path: Path, entry_type: type):
    """One corpus file as an ``entry_type`` (a frozen dataclass with a
    ``LABELS`` table: header key -> (field, parse)).

    The name is the file name after its ``NNN-`` order prefix.  A launch
    flag the header omits means what it means to ``repro check``; only
    the hang budget falls back to the dataclass's own default.  A label
    or flag the dataclass cannot hold, or a missing required label, is a
    :class:`ReproError` naming ``path:line``."""
    kernel_file = read_kernel_file(str(path))
    held = {field.name: field for field in fields(entry_type)}
    values: Dict[str, object] = {"name": path.stem.partition("-")[2],
                                 "source": kernel_file.source,
                                 "is_ptx": kernel_file.is_ptx}
    for name in LAUNCH_FIELDS:
        if name in kernel_file.launch:
            if name not in held:
                raise ReproError(
                    f"{path}:{kernel_file.launch_line}: "
                    f"{entry_type.__name__} takes no {_flag(name)}")
            values[name] = kernel_file.launch[name]
        elif name in held and name != "max_steps":
            values[name] = getattr(_SPEC_DEFAULTS, name)
    if "buffers" in values:
        values["buffers"] = tuple(Buffer(*b) for b in values["buffers"])
    for key, (number, raw) in kernel_file.labels.items():
        if key not in entry_type.LABELS:
            raise ReproError(f"{path}:{number}: {entry_type.__name__} takes "
                             f"no // repro-{key} line")
        field_name, parse = entry_type.LABELS[key]
        try:
            values[field_name] = parse(raw)
        except ValueError as exc:
            raise ReproError(f"{path}:{number}: // repro-{key}: {exc}") from None
    for key, (field_name, _parse) in entry_type.LABELS.items():
        if field_name not in values and held[field_name].default is MISSING:
            raise ReproError(f"{path}:{kernel_file.source_line}: no "
                             f"// repro-{key} line in the header")
    entry = entry_type(**values)
    try:
        entry.spec  # checks the launch's bindings, once
    except ReproError as exc:
        raise ReproError(f"{path}:{kernel_file.launch_line}: {exc}") from None
    return entry


def load_corpus(kind: str, entry_type: type) -> list:
    """Every file of ``corpus/<kind>/``, in file-name order, as
    ``entry_type`` objects."""
    return [corpus_entry(path, entry_type)
            for path in sorted((CORPUS / kind).iterdir())
            if path.suffix in (".cu", ".ptx")]


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
