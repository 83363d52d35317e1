"""Command-line interface: run a kernel under BARRACUDA like a tool.

The moral equivalent of ``cuda-memcheck --tool racecheck ./app``, for
this reproduction::

    python -m repro kernel.cu --kernel histogram --grid 2 --block 64 \
        --buffer data:128 --buffer bins:8 --scalar n:128

Accepts mini CUDA-C (``.cu``) or PTX (``.ptx``) input, allocates the
requested device buffers, launches the kernel under a full
:class:`BarracudaSession`, and prints race and barrier-divergence
reports grouped by location, plus instrumentation and queue statistics.

Nine subcommands front the system; the kernel-checking flow above
stays the default whenever the first argument is not a subcommand name::

    python -m repro check kernel.cu --grid 2 ...   # explicit form of the above
    python -m repro lint kernel.cu --format json   # static race lint, no run
    python -m repro explain kernel.cu --grid 2 ... # race provenance timelines
    python -m repro sweep kernel.cu --schedules 9 --seed 7  # predictive sweep
    python -m repro fix kernel.cu --grid 2 ...     # synthesize + verify patches
    python -m repro profile kernel.cu --grid 2 ... # hot-path profile
    python -m repro serve --socket /tmp/barracuda.sock --workers 4
    python -m repro replay run.capture [--socket /tmp/barracuda.sock]
    python -m repro convert capture.jsonl capture.bcap  # JSONL <-> binary

Each subcommand is a ``configure(parser)`` + ``run(args) -> exit code``
pair in :data:`_SUBCOMMANDS`.  :func:`main` is the only place that parses
argv and the only boundary where a failure becomes an exit status: a
:class:`~repro.errors.StepLimitExceeded` prints ``HANG: …`` (exit 3),
an :class:`OSError` or :class:`~repro.errors.ReproError` one ``error: …``
line (exit 2), wherever in the run it was raised.  :func:`_load_input` is
the one reader of a path argument: whether a file is kernel text or a
replay capture is decided by its content, never by its name.

The subcommands that launch a kernel (``check``, ``explain``, ``sweep``,
``fix``, ``profile``) share one set of launch flags
(:func:`repro.jobs.add_launch_args`) parsed into one
:class:`repro.jobs.LaunchSpec` (:func:`repro.jobs.spec_from_args`) and
started by :func:`repro.jobs.launch_spec`.  Given no launch flag, they
run the launch the kernel file's ``// repro-launch:`` header lines give
(docs/usage.md, "Corpus files").

``check`` takes ``--scheduler`` (any :data:`repro.gpu.SCHEDULER_KINDS`
name) plus ``--seed`` to pick the warp schedule, and ``--predict`` to
run the trace-level predictive analysis over the captured event stream;
``sweep`` runs the full schedule-exploration driver with
replay-confirmed witness schedules (``--witness-dir`` saves them).
``sweep``, ``fix`` and ``replay`` run on a service instead of in this
process when given ``--socket``/``--port``.

Observability flags (``--trace out.json`` for a Chrome trace-event file,
``--metrics`` for a Prometheus-style snapshot, ``--stats-format json``)
ride on ``check``, ``sweep``, ``replay`` and ``lint``; ``--trace`` is one
recorder and one exporter whether the run was local or served (a served
run's file also holds the server's and every shard's spans); ``replay
--socket --stats/--metrics/--health/--flight-dump`` are sections of one
STATUS request, ``explain --flight`` renders the always-on flight
recorder, and ``profile`` the engine's hot paths.  See
docs/observability.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from typing import Dict, Optional, Sequence

from .errors import ReproError, StepLimitExceeded
from .jobs import (
    KernelFile, LaunchSpec, add_launch_args, launch_spec, read_kernel_file,
    spec_from_args,
)
from .obs import (
    Profiler, make_observability, render_flight, render_provenance,
    write_flight_dump, write_merged_trace,
)
from .ptx import parse_ptx


_KERNEL_SOURCE = "kernel source file (.cu mini CUDA-C or .ptx)"
_KERNEL_OR_CAPTURE = ("kernel source (.cu/.ptx) or a replay capture (JSONL "
                      "or binary; recognised by content)")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """``--trace``/``--metrics``, on every subcommand that takes them."""
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace-event JSON file of the "
                        "run's phases (chrome://tracing / Perfetto); with "
                        "--socket/--port it also holds the server's and "
                        "every shard's spans")
    parser.add_argument("--metrics", action="store_true",
                        help="print a Prometheus-style metrics snapshot "
                        "(with --socket/--port: the service's own, via "
                        "the STATUS verb)")


def _obs_from_args(args, metrics: bool = False, remote: bool = False):
    """The observability bundle ``--trace``/``--metrics`` ask for; a
    remote run is counted by the service, not here, and its recorder is
    the client end of the trace the service's spans come back to."""
    return make_observability(
        trace=bool(args.trace),
        metrics=(args.metrics or metrics) and not remote)


def _load_input(path: str, expect: str = "", faults=None):
    """The one reader of a path argument.

    What the file *is* is decided by its content, never by its name: a
    replay capture (BCAP magic, or a first line that is the
    ``"format": "barracuda-capture"`` header) loads as ``(layout,
    kernel, batches, format)``; anything else is a kernel file and is
    returned as a :class:`repro.jobs.KernelFile`.  ``expect`` is
    ``"kernel"`` or ``"capture"`` for the subcommands that take only one
    of the two; a file that is no capture then fails with the capture
    loader's own error.
    """
    from .runtime.replay import detect_capture_format, load_capture_path_batches

    fmt = detect_capture_format(path)
    if fmt is None and expect != "capture":
        try:
            return read_kernel_file(path)
        except UnicodeDecodeError as exc:
            raise ReproError(f"{path} is neither kernel source text nor "
                             f"a replay capture: {exc}") from exc
    if expect == "kernel":
        raise ReproError(f"{path} is a replay capture ({fmt}), not kernel "
                         "source")
    return load_capture_path_batches(path, faults=faults)


def _configure_check(parser: argparse.ArgumentParser) -> None:
    parser.description = "Run a CUDA kernel under the BARRACUDA race detector."
    add_launch_args(parser, 2_000_000, _KERNEL_SOURCE)
    parser.add_argument("--no-prune", action="store_true",
                        help="disable the redundant-logging optimization")
    parser.add_argument("--prune-instrumentation", action="store_true",
                        help="drop logging for accesses the static analyzer "
                        "proves thread-private (repro.staticcheck)")
    parser.add_argument("--no-filter-same-value", action="store_true",
                        help="report benign same-value intra-warp stores too")
    parser.add_argument("--max-reports", type=int, default=10,
                        help="race reports to print per location")
    parser.add_argument("--dump-buffers", action="store_true",
                        help="print buffer contents after the launch")
    parser.add_argument("--stats", action="store_true",
                        help="print instrumentation and queue statistics")
    parser.add_argument("--stats-format", choices=("text", "json"),
                        default="text",
                        help="render --stats as human text (default) or as "
                        "the machine-readable metrics snapshot")
    _add_obs_args(parser)
    parser.add_argument("--fault-plan", metavar="PLAN.json",
                        help="inject deterministic faults from a JSON fault "
                        "plan (queue stalls, dropped commits; see "
                        "docs/robustness.md)")
    from .gpu.scheduler import SCHEDULER_KINDS

    parser.add_argument("--scheduler", choices=SCHEDULER_KINDS,
                        default="roundrobin",
                        help="warp scheduling strategy (default: fair "
                        "round-robin; the sweep strategies take --seed)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized/sweep schedulers")
    parser.add_argument("--predict", action="store_true",
                        help="run the predictive relaxed-order analysis over "
                        "the captured event stream and report races other "
                        "legal schedules could exhibit (see docs/predictive.md)")
    parser.add_argument("--capture", metavar="PATH",
                        help="write the captured log-record stream to PATH "
                        "as a binary capture (replayable later with 'repro "
                        "replay'; 'repro convert --to jsonl' for JSONL)")


def _load_fault_plan_arg(path: Optional[str]):
    """Load ``--fault-plan`` (None when the flag is absent)."""
    from .faults import load_fault_plan

    return load_fault_plan(path) if path else None


def _print_reports(reports, max_reports: int) -> int:
    """Shared race/divergence rendering, in the report payload's total
    order (a served run prints what a local one does); returns the exit code."""
    from .core.races import divergence_sort_key, race_sort_key

    exit_code = 0
    if reports.barrier_divergences:
        exit_code = 1
        print(f"========= {len(reports.barrier_divergences)} barrier divergence(s)")
        for report in sorted(reports.barrier_divergences,
                             key=divergence_sort_key):
            print(f"  {report}")

    if reports.races:
        exit_code = 1
        by_loc: Dict[str, list] = {}
        for race in sorted(reports.races, key=race_sort_key):
            by_loc.setdefault(str(race.loc), []).append(race)
        print(f"========= {len(reports.races)} race report(s) at "
              f"{len(by_loc)} location(s)")
        for loc, races in sorted(by_loc.items()):
            print(f"  {loc}: {len(races)} report(s)")
            for race in races[:max_reports]:
                tag = " [branch-ordering]" if race.branch_ordering else ""
                if race.static_prediction is not None:
                    tag += (f" [statically predicted:"
                            f" {race.static_prediction.rule}]")
                if race.predicted:
                    status = "confirmed" if race.confirmed else "unconfirmed"
                    tag += f" [predicted, {status}]"
                print(f"    {race.kind}: {race.prior_access} by t{race.prior_tid}"
                      f" vs {race.current_access} by t{race.current_tid}{tag}")
            if len(races) > max_reports:
                print(f"    ... and {len(races) - max_reports} more")
    else:
        print("========= no races detected")
    if reports.filtered_same_value:
        print(f"(filtered {reports.filtered_same_value} benign "
              "same-value intra-warp stores)")
    return exit_code


def _print_predictions(predicted, max_reports: int,
                       truncated: bool = False) -> int:
    """Render predictive findings; returns 1 when any were reported."""
    if truncated:
        print("warning: capture exceeded the predictive analysis op "
              "budget; predictions are partial", file=sys.stderr)
    if not predicted:
        print("--------- no additional races predicted")
        return 0
    print(f"--------- {len(predicted)} predicted race(s) under other "
          "legal schedules (run `repro sweep` to confirm)")
    for race in predicted[:max_reports]:
        print(f"  {race}")
    if len(predicted) > max_reports:
        print(f"  ... and {len(predicted) - max_reports} more")
    return 1


def _attach_static_predictions(reports, pristine_module) -> None:
    """Cross-check dynamic races against the static lint.

    When a lint finding covers the PTX line of either racing access the
    report is tagged as *statically predicted* — the defect could have
    been flagged without running the program."""
    from dataclasses import replace

    from .obs.provenance import StaticPrediction
    from .staticcheck import run_lint as static_lint

    if not reports.races:
        return
    try:
        findings = static_lint(pristine_module)
    except ReproError:  # the lint must never break checking
        return
    by_line: Dict[int, object] = {}
    for finding in findings:
        for line in (finding.line,) + finding.related_lines:
            by_line.setdefault(line, finding)
    for index, race in enumerate(reports.races):
        finding = by_line.get(race.current_pc) or by_line.get(race.prior_pc)
        if finding is None:
            continue
        reports.races[index] = replace(
            race,
            static_prediction=StaticPrediction(
                rule=finding.rule,
                severity=finding.severity,
                line=finding.line,
                message=finding.message,
                related_lines=finding.related_lines,
            ),
        )


def _print_predicted_beyond(obs, captured, layout, observed, max_reports: int,
                            **span_args) -> int:
    """Run the trace-level predictive analysis over the ``captured``
    batches and print the races it predicts beyond the ``observed`` ones."""
    from .predict import (
        predict_races, predicted_to_report, race_key, trace_from_rows,
    )

    with obs.tracer.span("predict", **span_args):
        trace = trace_from_rows(captured, layout)
        prediction = predict_races(trace)
    observed_keys = {race_key(race) for race in observed}
    predicted = []
    for entry in prediction.predicted:
        report = predicted_to_report(trace, entry)
        if race_key(report) not in observed_keys:
            predicted.append(report)
    return _print_predictions(predicted, max_reports,
                              truncated=prediction.truncated)


def _print_metrics(args, obs, remote_text: Optional[str] = None) -> None:
    """The ``--metrics`` trailer: this process's registry, or the text a
    remote run fetched from the service's STATUS verb."""
    if args.metrics:
        print("--------- metrics")
        print(obs.metrics.render_prometheus() if remote_text is None
              else remote_text, end="")


def _write_trace(args, obs) -> None:
    """The ``--trace`` trailer: this process's spans merged with whatever
    a service sent back (nothing, for a local run)."""
    if not args.trace:
        return
    trace_obj = write_merged_trace(args.outputs["trace"],
                                   obs.tracer.collected_payloads())
    dropped = sum(trace_obj["otherData"]["dropped_spans"].values())
    print(f"trace written to {args.trace} "
          f"({len(trace_obj['traceEvents'])} events, {dropped} span(s) "
          "dropped)", file=sys.stderr)


def run_check(args) -> int:
    want_json_stats = args.stats and args.stats_format == "json"
    obs = _obs_from_args(args, metrics=want_json_stats)

    from .core.races import DetectorConfig
    from .gpu.scheduler import make_scheduler

    fault_plan = _load_fault_plan_arg(args.fault_plan)
    spec = spec_from_args(args, _load_input(args.source, expect="kernel"))
    launched = launch_spec(
        spec,
        scheduler=make_scheduler(args.scheduler, args.seed),
        capture=args.predict or bool(args.capture),
        obs=obs,
        prune=not args.no_prune,
        detector_config=DetectorConfig(
            filter_same_value=not args.no_filter_same_value
        ),
        static_prune=args.prune_instrumentation,
        faults=fault_plan,
    )
    session, handle = launched.session, launched.handle
    kernel, launch = launched.kernel, launched.launch

    with obs.tracer.span("report", kernel=kernel):
        _attach_static_predictions(launch.reports, session.pristine_module(handle))
        exit_code = _print_reports(launch.reports, args.max_reports)

    if args.capture:
        from .runtime.replay import save_capture_binary

        count = save_capture_binary(args.outputs["capture"], spec.layout(),
                                    launch.captured, kernel=kernel)
        print(f"capture written to {args.capture} "
              f"({count} record(s), binary)", file=sys.stderr)

    if args.predict:
        exit_code = _print_predicted_beyond(
            obs, launch.captured or [], spec.layout(), launch.races,
            args.max_reports, kernel=kernel,
        ) or exit_code

    if args.stats and args.stats_format == "text":
        report = session.instrumentation_report(handle)
        kernel_report = next(k for k in report.kernels if k.name == kernel)
        print("--------- statistics")
        print(f"  static PTX instructions : {kernel_report.static_instructions}")
        print(f"  instrumented sites      : {kernel_report.instrumented_sites} "
              f"({kernel_report.instrumented_fraction:.1%})")
        print(f"  log records emitted     : {launch.records} "
              f"({launch.queue_bytes} queue bytes)")
        print(f"  queue stalls            : {launch.total_stalls} "
              f"({launch.total_stall_cycles} stall cycles)")
        print(f"  queue occupancy         : max depth {launch.max_queue_depth} "
              f"of {session.queue_capacity} records, "
              f"mean {launch.mean_queue_occupancy:.1f}, "
              f"{launch.total_wraps} ring wrap(s)")
        print(f"  simulated cycles        : {launch.instrumented.total_cycles}")
    elif want_json_stats:
        print(json.dumps(obs.metrics.snapshot(), indent=2, sort_keys=True))

    _print_metrics(args, obs)

    if args.dump_buffers:
        print("--------- buffers")
        for name, values in launched.read_buffers().items():
            print(f"  {name} = {values}")

    _write_trace(args, obs)
    return exit_code


# ----------------------------------------------------------------------
# Static lint (repro lint)
# ----------------------------------------------------------------------
def _configure_lint(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Statically lint a kernel for races, barrier "
        "divergence and missing-fence idioms without running it. "
        "--fail-on picks which findings make the exit code 1 "
        "(default: error-severity findings).")
    parser.add_argument("source", help=_KERNEL_SOURCE)
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="render findings as human text (default), JSON, "
                        "or a SARIF 2.1.0 log for code-scanning upload")
    parser.add_argument("--fail-on", choices=("error", "warning", "never"),
                        default="error",
                        help="exit 1 on error-severity findings (default), "
                        "on any finding (warning), or never")
    _add_obs_args(parser)


def run_lint(args) -> int:
    from .staticcheck import (
        SEVERITY_ERROR,
        render_json,
        render_sarif,
        render_text,
    )
    from .staticcheck import run_lint as static_lint

    obs = _obs_from_args(args)
    with obs.tracer.span("cuda-frontend", source=args.source):
        kernel_file = _load_input(args.source, expect="kernel")
        spec = LaunchSpec(source=kernel_file.source,
                          is_ptx=kernel_file.is_ptx)
        module = spec.compile()
        if not spec.is_ptx:
            # Compiled modules carry frontend AST lines; reparse the
            # printed PTX so findings point at real PTX text lines (the
            # same convention the session uses for race-report PCs).
            module = parse_ptx(str(module))
    with obs.tracer.span("static-lint", source=args.source):
        findings = static_lint(module)
    if spec.is_ptx:
        # A PTX file's findings name the file's lines: its header, if
        # any, precedes the source the module was parsed from.
        shift = kernel_file.source_line - 1
        findings = [replace(finding, line=finding.line + shift,
                            related_lines=tuple(line + shift for line
                                                in finding.related_lines))
                    for finding in findings]

    if obs.metrics.enabled:
        counter = obs.metrics.counter(
            "repro_lint_findings_total", "Static lint findings", ("severity",)
        )
        for finding in findings:
            counter.inc(severity=finding.severity)

    if args.format == "json":
        sys.stdout.write(render_json(findings, source_name=args.source))
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(findings, source_name=args.source))
    else:
        sys.stdout.write(render_text(findings, source_name=args.source))
    _print_metrics(args, obs)
    _write_trace(args, obs)
    if args.fail_on == "never":
        return 0
    if args.fail_on == "warning":
        return 1 if findings else 0
    return 1 if any(f.severity == SEVERITY_ERROR for f in findings) else 0


# ----------------------------------------------------------------------
# Race provenance (repro explain)
# ----------------------------------------------------------------------
def _source_line_map(module) -> Dict[int, str]:
    """Map PTX line numbers to instruction text for timeline rendering."""
    lines: Dict[int, str] = {}
    for kernel in module.kernels:
        for stmt in kernel.body:
            line = getattr(stmt, "line", 0)
            if line and line not in lines:
                lines[line] = str(stmt)
    return lines


def _print_provenance(reports, source_lines: Dict[int, str],
                      max_reports: int) -> int:
    def loc_text(pc: int) -> str:
        if pc < 0:
            return "<unknown PTX line>"
        text = f"PTX line {pc}"
        if pc in source_lines:
            text += f"   ; {source_lines[pc].strip()}"
        return text

    if not reports.races:
        print("========= no races to explain")
        return 0
    shown = reports.races[:max_reports]
    print(f"========= explaining {len(shown)} of {len(reports.races)} "
          "race report(s)")
    for index, race in enumerate(shown, start=1):
        print(f"\n--- race {index}: {race}")
        print(f"  current access: {loc_text(race.current_pc)}")
        print(f"  prior access  : {loc_text(race.prior_pc)}")
        if race.provenance is not None:
            for line in render_provenance(race.provenance, source_lines):
                print(f"  {line}")
        else:
            print("  (no provenance attached; detector ran with depth 0)")
    if len(reports.races) > max_reports:
        print(f"\n... and {len(reports.races) - max_reports} more")
    return 1


def _configure_explain(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Re-run race detection with provenance tracking and "
        "print a per-race evidence timeline (recent accesses per "
        "conflicting thread, PTX source locations, and the failed "
        "vector-clock comparison).  With --flight, instead render a "
        "flight-recorder dump (from `replay --flight-dump` or a "
        "degraded job) as a merged timeline.")
    parser.add_argument("--flight", metavar="DUMP.json",
                        help="render a flight-recorder dump as a merged "
                        "cross-process timeline instead of explaining races")
    add_launch_args(parser, 2_000_000, _KERNEL_OR_CAPTURE, nargs="?")
    parser.add_argument("--no-filter-same-value", action="store_true")
    parser.add_argument("--depth", type=int, default=5,
                        help="accesses retained per (location, thread)")
    parser.add_argument("--max-reports", type=int, default=10,
                        help="races to explain")


def run_explain(args) -> int:
    if args.flight:
        try:
            with open(args.flight) as handle:
                print(render_flight(json.load(handle)))
        except ValueError as exc:  # not JSON, not UTF-8, or not a dump
            raise ReproError(str(exc)) from exc
        return 0
    if not args.source:
        raise ReproError("a kernel source/capture or --flight is required")
    if args.depth < 1:
        raise ReproError("--depth must be at least 1")

    from .core.races import DetectorConfig

    config = DetectorConfig(
        filter_same_value=not args.no_filter_same_value,
        provenance_depth=args.depth,
    )
    source_lines: Dict[int, str] = {}
    loaded = _load_input(args.source)
    if isinstance(loaded, KernelFile):
        launched = launch_spec(spec_from_args(args, loaded),
                               detector_config=config)
        # Race-report PCs are line numbers of the PTX text the
        # session parsed back, not of the frontend's in-memory AST.
        source_lines = _source_line_map(
            launched.session.pristine_module(launched.handle))
        reports = launched.launch.reports
    else:
        from .runtime.replay import replay

        layout, _kernel, batches, _fmt = loaded
        reports = replay(layout, batches, config=config)
    return _print_provenance(reports, source_lines, args.max_reports)


# ----------------------------------------------------------------------
# Predictive schedule sweeps (repro sweep)
# ----------------------------------------------------------------------
def _write_witnesses(result, directory: str) -> int:
    """Save each finding's witness schedule as JSON; returns file count."""
    os.makedirs(directory, exist_ok=True)
    written = set()
    for race in result.findings:
        witness = race.witness
        if witness is None:
            continue
        name = f"witness-{witness.schedule_index:03d}-{witness.kind}.json"
        if name in written:
            continue
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(witness.to_json())
            handle.write("\n")
        written.add(name)
    return len(written)


def _print_sweep_result(result, max_reports: int) -> int:
    print(f"========= sweep: {result.schedules} schedule(s), "
          f"seed {result.seed}, kernel {result.kernel or '<first>'}")
    print(f"base schedule: {len(result.base_races)} race report(s), "
          f"{result.base_divergences} barrier divergence(s)")
    for run in result.runs:
        status = ""
        if run.get("hung"):
            status = "  (hung; tolerated)"
        elif run.get("error"):
            status = f"  (error: {run['error']})"
        print(f"  run {run['index']:>3}  {run['kind']:<16} "
              f"seed={run['seed']:<11} races={run['races']}{status}")
    if result.truncated:
        print("warning: capture exceeded the predictive analysis op "
              "budget; trace-level predictions are partial",
              file=sys.stderr)
    if not result.findings:
        print("========= no findings beyond the base schedule")
        return 0
    confirmed = len(result.confirmed)
    print(f"========= {len(result.findings)} finding(s) beyond the base "
          f"schedule ({confirmed} confirmed by witness replay)")
    for race in result.findings[:max_reports]:
        print(f"  {race}")
        witness = race.witness
        if witness is not None:
            print(f"      witness: {witness.kind} seed={witness.seed} "
                  f"(schedule {witness.schedule_index}, "
                  f"{len(witness.decisions)} decision(s))")
    if len(result.findings) > max_reports:
        print(f"  ... and {len(result.findings) - max_reports} more")
    return 1


def _run_staged_job(job, args, **fields):
    """Validate one staged-job request and run it: in this process, or on
    a running service when ``--socket``/``--port`` is given.

    Returns ``(result payload, obs, remote metrics text)``; the last is
    ``None`` for a local run.
    """
    spec_payload = spec_from_args(args, _load_input(args.source, expect="kernel")).to_payload()
    request = job.parse({"spec": spec_payload, **fields})
    remote = args.socket is not None or args.port is not None
    obs = _obs_from_args(args, remote=remote)
    if not remote:
        return job.run(request, obs), obs, None

    from .service.client import ServiceClient

    with ServiceClient(socket_path=args.socket, host=args.host,
                       port=args.port, timeout=600.0) as client:
        payload = client.run_job(job.name, spec_payload, fields,
                                 trace=obs.tracer)
        metrics_text = (client.status("metrics")["metrics"]["text"]
                        if args.metrics else "")
    return payload, obs, metrics_text


def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Predictive race detection via schedule sweeps: run "
        "N seeded schedule-exploration strategies plus the relaxed-order "
        "trace analysis over the base run, then confirm every new "
        "finding by deterministically replaying its witness schedule. "
        "With --socket/--port the sweep is fanned out by a running "
        "service instead of executing locally.")
    add_launch_args(parser, 400_000, _KERNEL_SOURCE)
    parser.add_argument("--schedules", type=int, default=9,
                        help="seeded schedule runs (cycled over the sweep "
                        "strategies)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; per-run seeds are derived from it")
    parser.add_argument("--witness-dir", metavar="DIR",
                        help="write each finding's witness schedule as a "
                        "replayable JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="render the sweep result as human text "
                        "(default) or as the serialized payload")
    parser.add_argument("--max-reports", type=int, default=10,
                        help="findings to print in text format")
    _add_obs_args(parser)
    _add_endpoint_args(parser)


def run_sweep_cmd(args) -> int:
    from .predict.sweep import JOB, SweepResult

    payload, obs, metrics_text = _run_staged_job(
        JOB, args, schedules=args.schedules, seed=args.seed)
    result = SweepResult.from_payload(payload)

    if args.witness_dir:
        written = _write_witnesses(result, args.witness_dir)
        print(f"{written} witness schedule(s) written to {args.witness_dir}",
              file=sys.stderr)

    if args.format == "json":
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
        exit_code = 1 if result.findings else 0
    else:
        exit_code = _print_sweep_result(result, args.max_reports)

    _print_metrics(args, obs, metrics_text)
    _write_trace(args, obs)
    return exit_code


# ----------------------------------------------------------------------
# Automated race repair (repro fix)
# ----------------------------------------------------------------------
def _candidate_diff(result, candidate) -> str:
    from .fix.patches import render_diff

    return render_diff(result.source, candidate["patched_source"],
                       f"{result.kernel}.ptx")


def _print_fix_result(result, max_reports: int) -> None:
    print(f"========= {len(result.targets)} race group(s), "
          f"{len(result.candidates)} candidate patch(es), "
          f"{len(result.verified)} verified")
    for target in result.targets:
        space, offset, block, pcs = target["key"]
        state = (f"repaired by candidate #{target['best']}"
                 if target["repaired"] else "NOT repaired")
        print(f"  {space}[0x{offset:x}] block {block} "
              f"PTX lines {pcs[0]}/{pcs[1]}: {state}")
    for candidate in result.candidates[:max_reports]:
        marker = "ok " if candidate["status"] == "verified" else "   "
        print(f"  {marker}#{candidate['index']} {candidate['strategy']} "
              f"(+{candidate['delta']} insn) [{candidate['status']}] "
              f"{candidate['description']}")
        if candidate["status"] != "verified" and candidate["detail"]:
            print(f"        {candidate['detail']}")
    if len(result.candidates) > max_reports:
        print(f"  ... and {len(result.candidates) - max_reports} more")
    best = result.verified_candidates
    if best:
        print(f"--------- best patch: candidate #{best[0]['index']} "
              f"({best[0]['strategy']})")
        sys.stdout.write(_candidate_diff(result, best[0]))


def _write_patches(result, patch_dir: str) -> int:
    os.makedirs(patch_dir, exist_ok=True)
    written = 0
    for rank, candidate in enumerate(result.verified_candidates):
        path = os.path.join(
            patch_dir,
            f"{result.kernel}-{rank:02d}-{candidate['strategy']}.patch",
        )
        with open(path, "w") as handle:
            handle.write(_candidate_diff(result, candidate))
        written += 1
    return written


def _configure_fix(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Automated race repair: detect races (base schedule + "
        "predictive sweep), synthesize minimal PTX patches from their "
        "static lint classification (barrier insertion, fence widening, "
        "atomic promotion, uniform-guard hoisting), verify every candidate "
        "by a full pipeline re-run, and rank survivors by instruction-count "
        "delta. With --socket/--port the verification is fanned out by a "
        "running service. Exit 0 when every race group has a verified "
        "patch (or there was nothing to repair), 1 otherwise.")
    add_launch_args(parser, 400_000, _KERNEL_SOURCE)
    parser.add_argument("--max-candidates", type=int, default=16,
                        help="cap on synthesized candidate patches")
    parser.add_argument("--verify-schedules", type=int, default=4,
                        help="seeded schedules in each verification sweep")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for the verification sweeps")
    parser.add_argument("--format", choices=("text", "json", "patch"),
                        default="text",
                        help="render the repair as human text (default), "
                        "the serialized result payload, or the best "
                        "verified patch as a unified diff")
    parser.add_argument("--patch-dir", metavar="DIR",
                        help="write every verified patch as a .patch file")
    parser.add_argument("--max-reports", type=int, default=20,
                        help="candidates to print in text format")
    _add_obs_args(parser)
    _add_endpoint_args(parser)


def run_fix_cmd(args) -> int:
    from .fix.driver import JOB, FixResult

    payload, obs, metrics_text = _run_staged_job(
        JOB, args, max_candidates=args.max_candidates,
        verify_schedules=args.verify_schedules, seed=args.seed)
    result = FixResult.from_payload(payload)

    if args.patch_dir:
        written = _write_patches(result, args.patch_dir)
        print(f"{written} verified patch(es) written to {args.patch_dir}",
              file=sys.stderr)

    if args.format == "json":
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
    elif args.format == "patch":
        best = result.verified_candidates
        if best:
            sys.stdout.write(_candidate_diff(result, best[0]))
        else:
            print("no verified patch", file=sys.stderr)
    else:
        _print_fix_result(result, args.max_reports)

    _print_metrics(args, obs, metrics_text)
    _write_trace(args, obs)
    if not result.targets:
        return 0
    return 0 if result.repaired_all else 1


# ----------------------------------------------------------------------
# Service subcommands
# ----------------------------------------------------------------------
def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", help="unix socket path of the service")
    parser.add_argument("--host", default="127.0.0.1", help="service TCP host")
    parser.add_argument("--port", type=int, help="service TCP port")


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.description = "Run the streaming race-detection service."
    _add_endpoint_args(parser)
    parser.add_argument("--workers", type=int, default=2,
                        help="detector worker processes (0 = in-process)")
    parser.add_argument("--high-water", type=int, default=None,
                        help="per-job pending-record backpressure threshold")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-batch worker watchdog timeout in seconds")
    parser.add_argument("--max-requeues", type=int, default=None,
                        help="shard-crash requeue attempts before a job "
                        "returns a degraded report")
    parser.add_argument("--fault-plan", metavar="PLAN.json",
                        help="inject deterministic worker faults (crash, "
                        "hang, poison) from a JSON fault plan")


def run_serve(args) -> int:
    from .service.server import (
        DEFAULT_HIGH_WATER,
        DEFAULT_JOB_TIMEOUT,
        DEFAULT_MAX_REQUEUES,
        RaceService,
    )

    service = RaceService(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        high_water=args.high_water or DEFAULT_HIGH_WATER,
        job_timeout=(args.job_timeout if args.job_timeout is not None
                     else DEFAULT_JOB_TIMEOUT),
        max_requeues=(args.max_requeues if args.max_requeues is not None
                      else DEFAULT_MAX_REQUEUES),
        fault_plan=_load_fault_plan_arg(args.fault_plan),
    )
    endpoints = [e for e in (args.socket and f"unix:{args.socket}",
                             args.port is not None and
                             f"tcp:{args.host}:{args.port}") if e]
    print(f"barracuda service listening on {', '.join(endpoints)} "
          f"({args.workers} worker(s)); ctrl-c to stop", file=sys.stderr)
    service.run_forever()
    return 0


def _configure_replay(parser: argparse.ArgumentParser) -> None:
    parser.description = ("Replay a capture through the detector: here, or "
                          "with --socket/--port on a service (same report).")
    parser.add_argument("capture", help="capture file (JSONL or binary; the "
                        "format is auto-detected from the magic bytes)")
    parser.add_argument("--reference", action="store_true",
                        help="use the uncompressed reference detector (local)")
    parser.add_argument("--no-filter-same-value", action="store_true",
                        help="report benign same-value intra-warp stores too")
    parser.add_argument("--max-reports", type=int, default=10,
                        help="race reports to print per location")
    parser.add_argument("--stats", action="store_true",
                        help="print capture (and job and service) statistics")
    parser.add_argument("--predict", action="store_true",
                        help="run the predictive relaxed-order analysis over "
                        "the capture and report races other legal schedules "
                        "could exhibit")
    parser.add_argument("--fault-plan", metavar="PLAN.json",
                        help="inject faults from a JSON fault plan: corrupt "
                        "capture lines while loading (truncate/garbage) and, "
                        "on the way to a service, wire faults (truncated/"
                        "garbage frames, connection resets)")
    _add_obs_args(parser)
    _add_endpoint_args(parser)
    parser.add_argument("--health", action="store_true",
                        help="print the service's per-shard liveness and "
                        "backlog (the STATUS verb's health section)")
    parser.add_argument("--flight-dump", metavar="PATH",
                        help="write the service's flight-recorder dump (a "
                        "degraded job's own, else the STATUS flight section)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="transparent retries on transient connection "
                        "failures (idempotent resubmission)")


def _replay_on_service(args, obs, layout, kernel, batches, config, faults):
    """Submit a loaded capture to the service ``--socket``/``--port``
    names; returns ``(job result, STATUS sections)`` — one STATUS request
    answers ``--stats``, ``--metrics``, ``--health`` and ``--flight-dump``."""
    from .service.client import ServiceClient, submit_batches

    result = submit_batches(
        layout, kernel, batches, socket_path=args.socket, host=args.host,
        port=args.port, config=config, max_retries=args.max_retries,
        faults=faults, trace=obs.tracer)
    sections = [name for name, wanted in (
        ("stats", args.stats), ("metrics", args.metrics),
        ("health", args.health),
        ("flight", args.flight_dump and result.flight is None)) if wanted]
    status: Dict[str, dict] = {}
    if sections:
        with ServiceClient(socket_path=args.socket, host=args.host,
                           port=args.port) as client:
            status = client.status(*sections)
    if args.flight_dump:
        write_flight_dump(args.flight_dump,
                          result.flight or status.get("flight") or {})
        print(f"flight-recorder dump written to {args.flight_dump}",
              file=sys.stderr)
    if result.attempts > 1:
        print(f"(succeeded on attempt {result.attempts} after "
              f"{len(result.transient_failures)} transient failure(s))",
              file=sys.stderr)
    if result.degraded:
        print("\n  ".join(["warning: degraded result — the service gave up "
                           "on this job:", *result.failure_log]),
              file=sys.stderr)
    return result, status


def run_replay(args) -> int:
    from .core.races import DetectorConfig
    from .runtime.replay import replay, replay_detector
    from .runtime.session import publish_detector_metrics

    remote = args.socket is not None or args.port is not None
    if args.reference and remote:
        raise ReproError("--reference replays in this process; drop it or "
                         "--socket/--port")
    if not remote and (args.health or args.flight_dump):
        raise ReproError("--health and --flight-dump ask a service; name it "
                         "with --socket/--port")
    obs = _obs_from_args(args, remote=remote)
    fault_plan = _load_fault_plan_arg(args.fault_plan)
    with obs.tracer.span("load-capture", source=args.capture):
        layout, kernel, batches, fmt = _load_input(
            args.capture, expect="capture", faults=fault_plan)
        if fault_plan is not None and fmt == "binary" and not remote:
            print("warning: --fault-plan line faults apply to JSONL "
                  "captures only; ignored for this binary capture",
                  file=sys.stderr)
    record_count = sum(len(batch) for batch in batches)
    config = DetectorConfig(filter_same_value=not args.no_filter_same_value)
    detector = None  # the production detector, when it ran here
    if remote:
        result, status = _replay_on_service(
            args, obs, layout, kernel, batches, config, fault_plan)
        reports = result.reports
        if result.degraded:
            _write_trace(args, obs)
            return 4
    else:
        with obs.tracer.span("replay", records=record_count):
            if args.reference:
                reports = replay(layout, batches, config=config,
                                 reference=True)
            else:
                detector = replay_detector(layout, batches, config)
                reports = detector.reports

    if obs.metrics.enabled:
        obs.metrics.counter(
            "repro_replay_records_total", "Records replayed offline"
        ).inc(record_count)
        if detector is not None:
            publish_detector_metrics(obs.metrics, detector)

    exit_code = _print_reports(reports, args.max_reports)
    if args.predict:
        exit_code = _print_predicted_beyond(
            obs, batches, layout, reports.races, args.max_reports,
            records=record_count,
        ) or exit_code
    if args.stats:
        print("--------- statistics")
        print(f"  kernel                  : {kernel or '<unknown>'}")
        print(f"  records replayed        : {record_count}")
        print(f"  grid                    : {layout.num_blocks} block(s) x "
              f"{layout.threads_per_block} thread(s), warp {layout.warp_size}")
        if remote:
            from .service.stats import render_job_stats, render_service_stats

            print(render_job_stats(result.stats))
            print(render_service_stats(status["stats"]))
    _print_metrics(args, obs,
                   status["metrics"]["text"] if remote and args.metrics else None)
    if args.health:
        print("--------- health")
        print(json.dumps(status["health"], indent=2, sort_keys=True))
    _write_trace(args, obs)
    return exit_code


# ----------------------------------------------------------------------
# Hot-path profiling (repro profile)
# ----------------------------------------------------------------------
def _configure_profile(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Profile the detection hot path per PTX opcode and "
        "source line. Kernel sources (.cu/.ptx) run with the engine's "
        "closure-dispatch profiler attached; replay captures "
        "(JSONL or binary, recognised by content) are profiled through "
        "the detector's fused loop, one row at a time. The default text "
        "output is count-ordered and deterministic across repeated runs.")
    add_launch_args(parser, 2_000_000, _KERNEL_OR_CAPTURE)
    parser.add_argument("--top", type=int, default=20,
                        help="sites to show in text format")
    parser.add_argument("--format", choices=("text", "json", "collapsed"),
                        default="text",
                        help="text top-N (default), JSON, or flamegraph.pl "
                        "collapsed stacks")
    parser.add_argument("--show-time", action="store_true",
                        help="include measured exclusive seconds in the "
                        "text output (non-deterministic across runs)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the profile here instead of stdout")


def run_profile(args) -> int:
    source_lines: Dict[int, str] = {}
    loaded = _load_input(args.source)
    if isinstance(loaded, KernelFile):
        obs = make_observability(profile=True)
        launched = launch_spec(spec_from_args(args, loaded), obs=obs)
        source_lines = _source_line_map(
            launched.session.pristine_module(launched.handle))
        profiler = obs.profiler
    else:
        from time import perf_counter

        from .columnar import KINDS
        from .core.detector import BarracudaDetector
        from .core.races import DetectorConfig

        profiler = Profiler()
        layout, _kernel, batches, _fmt = loaded
        config = DetectorConfig()
        detector = BarracudaDetector(layout, config)
        for batch in batches:
            for row in range(len(batch)):
                start = perf_counter()
                detector.process_columnar(batch, config.granularity_bytes,
                                          row, row + 1)
                profiler.account(KINDS[batch.kinds[row]].value,
                                 max(batch.pcs[row], 0),
                                 seconds=perf_counter() - start)

    if args.format == "json":
        text = json.dumps(profiler.to_json(source_lines), indent=1,
                          sort_keys=True)
    elif args.format == "collapsed":
        text = profiler.render_collapsed(source_lines=source_lines)
    else:
        text = profiler.render_text(top=args.top, source_lines=source_lines,
                                    show_time=args.show_time)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"profile written to {args.out} "
              f"({profiler.total_events} events)", file=sys.stderr)
    else:
        print(text)
    return 0


def _configure_convert(parser: argparse.ArgumentParser) -> None:
    from .columnar import DEFAULT_BATCH_RECORDS

    parser.description = (
        "Convert a replay capture between the JSONL and binary "
        "formats.  The source format is auto-detected from the magic bytes "
        "and the conversion is lossless in both directions: converting "
        "there and back yields the identical record stream.")
    parser.add_argument("src", help="source capture (JSONL or binary)")
    parser.add_argument("dst", help="destination path")
    parser.add_argument("--to", choices=("jsonl", "binary"), default=None,
                        help="target format (default: the opposite of the "
                        "detected source format)")
    parser.add_argument("--batch-records", type=int,
                        default=DEFAULT_BATCH_RECORDS,
                        metavar="N",
                        help="records per columnar frame when writing "
                        "binary captures")


def run_convert(args) -> int:
    from .runtime.replay import convert_capture

    src_fmt, dst_fmt, count = convert_capture(
        args.src, args.dst, to_format=args.to,
        batch_records=args.batch_records)
    print(f"{args.src} ({src_fmt}) -> {args.dst} ({dst_fmt}): "
          f"{count} record(s)")
    return 0


#: name -> the output paths it writes after its work, as (argument, open
#: mode).  ``main`` opens them before the work starts, into
#: ``args.outputs``: an unwritable path is one ``error:`` line, exit 2,
#: with nothing run and nothing on stdout.
_OUTPUTS = {
    "check": (("trace", "w"), ("capture", "wb")),
    **dict.fromkeys(("lint", "sweep", "fix", "replay"), (("trace", "w"),)),
}

#: name -> (configure(parser), run(args) -> exit code)
_SUBCOMMANDS = {
    "check": (_configure_check, run_check),
    "lint": (_configure_lint, run_lint),
    "explain": (_configure_explain, run_explain),
    "sweep": (_configure_sweep, run_sweep_cmd),
    "fix": (_configure_fix, run_fix_cmd),
    "profile": (_configure_profile, run_profile),
    "serve": (_configure_serve, run_serve),
    "replay": (_configure_replay, run_replay),
    "convert": (_configure_convert, run_convert),
}


def build_parser(name: str = "check") -> argparse.ArgumentParser:
    """The argument parser of one subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro" if name == "check" else f"repro {name}")
    _SUBCOMMANDS[name][0](parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run the subcommand, and turn any failure into one
    stderr line and an exit status.

    ``python -m repro kernel.cu --grid 2`` predates the subcommands and
    keeps working: a first argument that is not a subcommand name is a
    kernel source path for ``check``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _SUBCOMMANDS:
        argv.insert(0, "check")
    args = build_parser(argv[0]).parse_args(argv[1:])
    try:
        # ``check``, ``explain``, ``sweep``, ``fix`` and ``replay``: 0 is
        # a summary only, a negative count would slice reports away.
        max_reports = getattr(args, "max_reports", 0)
        if max_reports < 0:
            raise ReproError(
                f"--max-reports must be at least 0, not {max_reports}")
        with contextlib.ExitStack() as opened:
            args.outputs = {
                name: opened.enter_context(open(path, mode))
                for name, mode in _OUTPUTS.get(argv[0], ())
                if (path := getattr(args, name))
            }
            return _SUBCOMMANDS[argv[0]][1](args)
    except StepLimitExceeded as exc:
        print(f"HANG: {exc}", file=sys.stderr)
        return 3
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
