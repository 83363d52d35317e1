"""Differential proof that the engine matches its oracle.

The threaded-code engine (``repro.gpu.interpreter.KernelExecution``)
claims to be *bit-identical* to the re-decode-every-step interpreter it
replaced (``tests/oracle.py``: ``NaiveKernelExecution``, substituted
through ``oracle_engine()``): same event stream, same reports, same
instruction/cycle accounting, same failures.  This suite holds it to
that claim across every suite program (with and without static
instrumentation pruning) and every Table 1 workload.

The detector axis rides the same programs.  The per-record oracle
(``tests/oracle.py``: ``record_to_ops`` → ``BarracudaDetector.process``,
which no production path runs any more) must agree with the fused loop
the live launch ran (races, barrier divergences, ``ops_processed``,
``clocks.joins``) and with ``replay()`` of the launch's capture after a
lossless round trip through both persistence formats (JSONL and binary
columnar).
"""

import io

from typing import Dict, Tuple

import pytest

from repro.bench import ALL_WORKLOADS, run_workload
from repro.core.detector import BarracudaDetector
from repro.errors import SimulationError, StepLimitExceeded
from repro.gpu.hierarchy import LaunchConfig
from repro.obs import make_observability
from repro.runtime import BarracudaSession
from repro.runtime.replay import (
    load_capture,
    load_capture_binary,
    replay,
    save_capture,
    save_capture_binary,
)
from repro.suite import ALL_PROGRAMS

from oracle import oracle_engine, per_record_oracle


def _launch(program, session: BarracudaSession):
    """One capturing launch of a suite program or Table 1 workload."""
    module = program.compile()
    session.register_module(module)
    params: Dict[str, int] = {}
    for buffer in program.buffers:
        addr = session.device.alloc(buffer.words * 4)
        values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
        session.device.memcpy_to_device(addr, values)
        params[buffer.name] = addr
    for name, value in program.scalars:
        params[name] = value
    return session.launch(
        module.kernels[0].name,
        grid=program.grid,
        block=program.block,
        warp_size=program.warp_size,
        params=params,
        max_steps=program.max_steps,
        capture_records=True,
        cooperative=getattr(program, "cooperative", False),
    )


def _run_suite_program(program, static_prune: bool) -> Tuple:
    """One instrumented launch, summarized for exact comparison.

    The returned tuple contains the full captured event stream, the
    launch counters, and the report set — everything observable about a
    launch short of wall-clock time.
    """
    session = BarracudaSession(static_prune=static_prune)
    try:
        launch = _launch(program, session)
    except StepLimitExceeded:
        return ("hang",)
    except SimulationError as exc:
        return ("error", str(exc))
    result = launch.instrumented
    return (
        "ok",
        launch.captured_records,
        (
            result.instructions,
            result.cycles,
            result.stall_cycles,
            result.records_emitted,
        ),
        sorted(str(race) for race in launch.reports.races),
        sorted(str(report) for report in launch.reports.barrier_divergences),
    )


@pytest.mark.parametrize("static_prune", [False, True], ids=["prune-off", "prune-on"])
@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_suite_program_equivalence(program, static_prune):
    with oracle_engine():
        expected = _run_suite_program(program, static_prune)
    assert _run_suite_program(program, static_prune) == expected


def _report_lines(reports) -> Tuple:
    return (
        sorted(str(race) for race in reports.races),
        sorted(str(report) for report in reports.barrier_divergences),
    )


def _assert_oracle_differential(program, static_prune: bool) -> None:
    """Per-record oracle vs live launch vs replay of both capture formats."""
    obs = make_observability(metrics=True)
    session = BarracudaSession(static_prune=static_prune, obs=obs)
    try:
        launch = _launch(program, session)
    except (StepLimitExceeded, SimulationError) as exc:
        pytest.skip(f"{type(exc).__name__}: no capture to persist")
    records = launch.captured_records
    layout = LaunchConfig.of(
        program.grid, program.block, program.warp_size).layout()

    oracle = per_record_oracle(layout, records)
    expected = _report_lines(oracle.reports)
    counters = (oracle.ops_processed, oracle.clocks.joins)

    metrics = obs.metrics.snapshot()
    assert _report_lines(launch.reports) == expected
    assert (
        metrics["repro_detector_ops_total"]["values"][""],
        metrics["repro_vector_clock_joins_total"]["values"][""],
    ) == counters

    text = io.StringIO()
    save_capture(text, layout, records, kernel=program.name)
    text.seek(0)
    jsonl_layout, jsonl_kernel, jsonl_records = load_capture(text)
    assert (jsonl_layout, jsonl_kernel) == (layout, program.name)
    assert jsonl_records == records
    assert _report_lines(replay(layout, jsonl_records)) == expected

    blob = io.BytesIO()
    save_capture_binary(blob, layout, records, kernel=program.name,
                        batch_records=64)
    blob.seek(0)
    bin_layout, bin_kernel, batches = load_capture_binary(blob)
    assert (bin_layout, bin_kernel) == (layout, program.name)
    assert [r for batch in batches for r in batch.iter_records()] == records
    assert _report_lines(replay(layout, batches)) == expected
    fused = BarracudaDetector(layout)
    for batch in batches:
        fused.process_columnar(batch)
    assert (fused.ops_processed, fused.clocks.joins) == counters


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_capture_format_equivalence(program):
    """Every suite program, with and without static pruning."""
    for static_prune in (False, True):
        _assert_oracle_differential(program, static_prune)


@pytest.mark.parametrize("entry", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_capture_format_equivalence(entry):
    """Every Table 1 workload, with and without static pruning."""
    for static_prune in (False, True):
        _assert_oracle_differential(entry, static_prune)


@pytest.mark.parametrize("entry", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_equivalence(entry):
    def outcome():
        run = run_workload(
            entry, session=BarracudaSession(), compare_native=False)
        result = run.launch.instrumented
        return (
            sorted(str(race) for race in run.launch.reports.races),
            result.instructions,
            result.cycles,
            result.stall_cycles,
            result.records_emitted,
        )

    with oracle_engine():
        expected = outcome()
    assert outcome() == expected
