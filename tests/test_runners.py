"""One runner: every way of running a described launch is the same launch.

``run_program`` / ``run_workload`` are ``launch_spec`` plus a summary, and
the baselines' detector-less flow is ``record_stream``.  Checked against
the one launcher on every suite program and Table-1 workload, and — for
the baselines — against the hand-rolled launch each of them carried
before, kept verbatim below.
"""

from typing import Dict

import pytest

from repro.baselines import run_ldetector, run_racecheck
from repro.baselines.ldetector import LDetector
from repro.baselines.racecheck import HANG_STEPS, RacecheckDetector
from repro.bench import ALL_WORKLOADS, Workload, run_workload
from repro.errors import DeadlockError, SimulationError, StepLimitExceeded
from repro.gpu.device import GpuDevice
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.interpreter import ListSink
from repro.gpu.scheduler import WarpSerializingScheduler
from repro.instrument.passes import Instrumenter
from repro.jobs import ARCHES, launch_spec
from repro.predict import race_key
from repro.runtime import BarracudaSession
from repro.suite import ALL_PROGRAMS, SuiteProgram, Verdict, run_program


def _summary(launch):
    return ([race_key(race) for race in launch.races],
            [str(report) for report in launch.barrier_divergences],
            launch.records)


@pytest.mark.parametrize("entry", list(ALL_PROGRAMS) + list(ALL_WORKLOADS),
                         ids=lambda entry: entry.name)
def test_runner_is_the_one_launcher_plus_a_summary(entry):
    direct = launch_spec(entry.spec).launch
    if isinstance(entry, Workload):
        result = run_workload(entry, compare_native=False)
        assert result.launch.native is None
        assert result.static_insns == entry.compile().static_instruction_count()
        assert (result.races, result.race_spaces) == (
            len(direct.races),
            sorted({r.loc.space.value for r in direct.races}))
        launch = result.launch
    else:
        session = BarracudaSession(arch=ARCHES[entry.arch])
        verdict = run_program(entry, session=session)
        assert not verdict.hang and verdict.error is None
        assert (verdict.races, verdict.barrier_divergences) == (
            len(direct.races), len(direct.barrier_divergences))
        assert verdict.race_spaces == {r.loc.space.value for r in direct.races}
        # The caller's session ran the launch (the ledger reads it back).
        (launch,) = session.launches
    assert _summary(launch) == _summary(direct)


# ----------------------------------------------------------------------
# The baselines' launches as they were before ``record_stream``: the
# alloc loop, the raw device and the sink spelled out in each.
# ----------------------------------------------------------------------
def _parent_run_ldetector(program: SuiteProgram) -> Verdict:
    device = GpuDevice()
    module = program.compile()
    instrumented, _report = Instrumenter(prune=False).instrument_module(module)
    device.load_module(instrumented)
    params: Dict[str, int] = {}
    for buffer in program.buffers:
        addr = device.alloc(buffer.words * 4)
        values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
        device.memcpy_to_device(addr, values)
        params[buffer.name] = addr
    for name, value in program.scalars:
        params[name] = value
    sink = ListSink()
    verdict = Verdict(program=program.name)

    layout = LaunchConfig.of(program.grid, program.block, program.warp_size).layout()
    try:
        device.launch(
            instrumented,
            module.kernels[0].name,
            grid=program.grid,
            block=program.block,
            warp_size=program.warp_size,
            params=params,
            sink=sink,
            instrumented=True,
            max_steps=program.max_steps,
        )
    except (StepLimitExceeded, DeadlockError):
        verdict.hang = True
        return verdict
    except SimulationError as exc:
        verdict.error = str(exc)
        return verdict
    detector = LDetector(layout)
    detector.consume(sink.records)
    verdict.races = len(detector.conflicts)
    verdict.race_spaces = frozenset(c.space for c in detector.conflicts)
    return verdict


def _parent_run_racecheck(program: SuiteProgram) -> Verdict:
    device = GpuDevice()
    module = program.compile()
    instrumented, _report = Instrumenter(prune=False).instrument_module(module)
    device.load_module(instrumented)
    params: Dict[str, int] = {}
    for buffer in program.buffers:
        addr = device.alloc(buffer.words * 4)
        values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
        device.memcpy_to_device(addr, values)
        params[buffer.name] = addr
    for name, value in program.scalars:
        params[name] = value
    sink = ListSink()
    verdict = Verdict(program=program.name)

    layout = LaunchConfig.of(program.grid, program.block, program.warp_size).layout()
    try:
        device.launch(
            instrumented,
            module.kernels[0].name,
            grid=program.grid,
            block=program.block,
            warp_size=program.warp_size,
            params=params,
            sink=sink,
            instrumented=True,
            scheduler=WarpSerializingScheduler(),
            max_steps=HANG_STEPS,
        )
    except (StepLimitExceeded, DeadlockError):
        verdict.hang = True
        return verdict
    except SimulationError as exc:
        verdict.error = str(exc)
        return verdict
    detector = RacecheckDetector(layout)
    detector.consume(sink.records)
    verdict.races = len(detector.hazards)
    verdict.race_spaces = frozenset({"shared"} if detector.hazards else set())
    return verdict


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_baseline_verdicts_equal_the_hand_rolled_launches(program):
    # Dataclass equality: races, spaces, divergences, hang and error.
    assert run_ldetector(program) == _parent_run_ldetector(program)
    assert run_racecheck(program) == _parent_run_racecheck(program)
