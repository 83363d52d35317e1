"""Predictive race detection: relaxation analysis, sweeps, witnesses.

Covers the three layers of ``repro.predict`` plus their CLI and service
faces:

* trace-level relaxed-order analysis (spin evidence, lock suppression,
  truncation) on hand-built traces;
* the schedule-sweep driver over the schedule-sensitive suite programs,
  with pinned seeds asserting replay-confirmed findings the default
  single-schedule run misses;
* witness-schedule serialization and deterministic replay;
* determinism of sweep results across repeats, engines, and the
  service fan-out path.
"""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ReproError, ScheduleDivergence
from repro.gpu.scheduler import (
    SCHEDULER_KINDS,
    SWEEP_KINDS,
    BarrierShuffleScheduler,
    RandomScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    StoreDrainScheduler,
    WarpOrderScheduler,
    WarpSerializingScheduler,
    make_scheduler,
)
from repro.predict import (
    LaunchSpec,
    SweepResult,
    WitnessSchedule,
    predict_races,
    predicted_to_report,
    race_key,
    run_spec,
    run_sweep,
    trace_from_rows,
)
from repro.runtime.replay import save_capture
from repro.suite import SCHEDULE_PROGRAMS, schedule_program
from repro.trace import GridLayout, Scope, TraceBuilder, global_loc

from oracle import oracle_engine

MASTER_SEED = 7
SCHEDULES = 9

X = global_loc(0)
FLAG = global_loc(8)
LOCK = global_loc(16)


def _per_thread_layout(num_blocks: int = 2) -> GridLayout:
    """One thread per warp: per-thread control over trace construction."""
    return GridLayout(num_blocks=num_blocks, threads_per_block=1, warp_size=1)


# ----------------------------------------------------------------------
# Relaxed-order analysis on hand-built traces
# ----------------------------------------------------------------------
class TestRelaxation:
    def test_single_acquire_edge_is_relaxed(self):
        # Classic flag handoff without a spin: the rel->acq edge merely
        # records lucky timing, so the data pair is predicted.
        b = TraceBuilder(_per_thread_layout())
        b.write(0, X, value=1, pc=1)
        b.release(0, FLAG, Scope.GLOBAL, pc=2)
        b.acquire(1, FLAG, Scope.GLOBAL, pc=3)
        b.read(1, X, pc=4)
        result = predict_races(b.build())
        assert len(result.predicted) == 1
        assert result.predicted[0].loc == X
        assert len(result.relaxed_edges) == 1
        assert not result.forced_acquires

    def test_spin_evidence_forces_the_edge(self):
        # The same handoff with a spinning reader: the repeated acquire
        # (same tid, pc, location) proves the wait, so nothing is
        # predicted.
        b = TraceBuilder(_per_thread_layout())
        b.write(0, X, value=1, pc=1)
        b.release(0, FLAG, Scope.GLOBAL, pc=2)
        b.acquire(1, FLAG, Scope.GLOBAL, pc=3)
        b.acquire(1, FLAG, Scope.GLOBAL, pc=3)
        b.read(1, X, pc=4)
        result = predict_races(b.build())
        assert result.predicted == []
        assert result.forced_acquires

    def test_common_lock_suppresses_prediction(self):
        # Both critical sections hold the same lock: mutually exclusive
        # under every schedule, so the writes are never predicted even
        # though each rel->acq edge is individually relaxable.
        b = TraceBuilder(_per_thread_layout())
        b.acquire(0, LOCK, Scope.GLOBAL, pc=1)
        b.write(0, X, value=1, pc=2)
        b.release(0, LOCK, Scope.GLOBAL, pc=3)
        b.acquire(1, LOCK, Scope.GLOBAL, pc=4)
        b.write(1, X, value=2, pc=5)
        b.release(1, LOCK, Scope.GLOBAL, pc=6)
        result = predict_races(b.build())
        assert result.predicted == []
        assert LOCK in result.lock_locations

    def test_barrier_order_is_never_relaxed(self):
        # Orders any schedule must respect stay: a barrier join is not a
        # relaxable edge.
        b = TraceBuilder(GridLayout(num_blocks=1, threads_per_block=2,
                                    warp_size=1))
        b.write(0, X, value=1, pc=1)
        b.barrier(0)
        b.read(1, X, pc=2)
        result = predict_races(b.build())
        assert result.predicted == []

    def test_observed_races_are_not_predicted(self):
        # A pair unordered in the observed run is the detector's job,
        # not a prediction.
        b = TraceBuilder(_per_thread_layout())
        b.write(0, X, value=1, pc=1)
        b.write(1, X, value=2, pc=2)
        result = predict_races(b.build())
        assert result.predicted == []

    def test_truncation_guard(self):
        b = TraceBuilder(_per_thread_layout())
        b.write(0, X, value=1, pc=1)
        b.release(0, FLAG, Scope.GLOBAL, pc=2)
        b.acquire(1, FLAG, Scope.GLOBAL, pc=3)
        b.read(1, X, pc=4)
        result = predict_races(b.build(), max_ops=2)
        assert result.truncated
        assert result.predicted == []

    def test_predicted_report_is_tagged(self):
        b = TraceBuilder(_per_thread_layout())
        b.write(0, X, value=1, pc=1)
        b.release(0, FLAG, Scope.GLOBAL, pc=2)
        b.acquire(1, FLAG, Scope.GLOBAL, pc=3)
        b.read(1, X, pc=4)
        trace = b.build()
        result = predict_races(trace)
        report = predicted_to_report(trace, result.predicted[0])
        assert report.predicted
        assert report.confirmed is False
        assert "[predicted, unconfirmed]" in str(report)


# ----------------------------------------------------------------------
# Schedulers: fairness fix, factory, replay
# ----------------------------------------------------------------------
class _FakeWarp:
    def __init__(self, warp: int) -> None:
        self.warp = warp


class TestSchedulers:
    def test_round_robin_schedules_warp_zero_first(self):
        # Regression: the pick used to advance the cursor before
        # indexing, so the lowest-index runnable warp was never first.
        scheduler = RoundRobinScheduler()
        runnable = [_FakeWarp(0), _FakeWarp(1), _FakeWarp(2)]
        picks = [scheduler.pick(runnable).warp for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_make_scheduler_kinds(self):
        expected = {
            "roundrobin": RoundRobinScheduler,
            "random": RandomScheduler,
            "serialized": WarpSerializingScheduler,
            "warp-order": WarpOrderScheduler,
            "barrier-shuffle": BarrierShuffleScheduler,
            "store-drain": StoreDrainScheduler,
        }
        assert set(SCHEDULER_KINDS) == set(expected)
        for kind, cls in expected.items():
            assert isinstance(make_scheduler(kind, seed=3), cls)
        for kind in SWEEP_KINDS:
            assert make_scheduler(kind, seed=3).kind == kind

    def test_make_scheduler_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo")

    def test_replay_divergence_on_exhausted_trace(self):
        replay = ReplayScheduler([], RoundRobinScheduler())
        with pytest.raises(ScheduleDivergence):
            replay.pick([_FakeWarp(0)])

    def test_replay_divergence_on_unrunnable_warp(self):
        replay = ReplayScheduler([5], RoundRobinScheduler())
        with pytest.raises(ScheduleDivergence):
            replay.pick([_FakeWarp(0), _FakeWarp(1)])


# ----------------------------------------------------------------------
# Witness schedules
# ----------------------------------------------------------------------
class TestWitness:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ReproError):
            WitnessSchedule(kind="roundrobin", seed=1, decisions=(0,))

    def test_rejects_bad_payload(self):
        witness = WitnessSchedule(kind="warp-order", seed=1, decisions=(0, 1))
        payload = witness.to_payload()
        for corrupt in ({**payload, "format": "nope"},
                        {**payload, "version": 99}):
            with pytest.raises(ReproError):
                WitnessSchedule.from_payload(corrupt)

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(SWEEP_KINDS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        decisions=st.lists(st.integers(min_value=0, max_value=2**20),
                           max_size=64),
        kernel=st.text(max_size=20),
        index=st.integers(min_value=-1, max_value=10_000),
    )
    def test_json_round_trip(self, kind, seed, decisions, kernel, index):
        witness = WitnessSchedule(
            kind=kind, seed=seed, decisions=tuple(decisions),
            kernel=kernel, schedule_index=index,
        )
        assert WitnessSchedule.from_json(witness.to_json()) == witness


# ----------------------------------------------------------------------
# Schedule-sensitive suite programs, pinned master seed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweeps():
    """One sweep per schedule program at the pinned master seed."""
    results = {}
    for program in SCHEDULE_PROGRAMS:
        spec = LaunchSpec.from_program(program)
        results[program.name] = run_sweep(
            spec, schedules=SCHEDULES, seed=MASTER_SEED
        )
    return results


class TestScheduleSweeps:
    def test_handoff_no_spin_confirmed(self, sweeps):
        # The base schedule reports nothing; the sweep manifests the
        # data[0] handoff race and its witness replay confirms it.
        result = sweeps["handoff_no_spin"]
        assert result.base_races == []
        assert len(result.findings) >= 1
        assert result.confirmed
        for race in result.confirmed:
            assert race.predicted
            assert race.witness is not None

    def test_handoff_no_spin_trace_predicted(self):
        # This family is also caught by the trace-level relaxation
        # alone, straight from the base run's capture.
        spec = LaunchSpec.from_program(schedule_program("handoff_no_spin"))
        launch = run_spec(spec, capture=True)
        assert launch.races == []
        trace = trace_from_rows(launch.captured, spec.layout())
        result = predict_races(trace)
        assert len(result.predicted) >= 1
        assert result.relaxed_edges

    def test_async_handoff_confirmed(self, sweeps):
        # Modern-idiom prediction: the cp.async tile handoff's deferred
        # shared store is flag-released; the base schedule observes the
        # flag, but reader-first permutations manifest the shared-tile
        # race and its witness replay confirms it.
        result = sweeps["async_handoff_no_spin"]
        assert result.base_races == []
        assert result.confirmed
        for race in result.confirmed:
            assert race.predicted
            assert race.witness is not None
            assert "shared" in str(race)

    def test_async_handoff_trace_predicted(self):
        # The relaxation analysis alone sees it too: the only ordering
        # between the flushed cp.async store and the tile read is a
        # single non-spinning acquire edge, which is relaxable.
        spec = LaunchSpec.from_program(
            schedule_program("async_handoff_no_spin"))
        launch = run_spec(spec, capture=True)
        assert launch.races == []
        trace = trace_from_rows(launch.captured, spec.layout())
        result = predict_races(trace)
        assert len(result.predicted) >= 1

    def test_cooperative_spec_sweeps_grid_sync_program(self):
        # A cooperative LaunchSpec threads the launch flag through every
        # sweep phase: the grid_sync_missing race is base-visible and no
        # run dies on the barrier.cluster cooperative check.
        from repro.suite import program as suite_program

        spec = LaunchSpec.from_program(suite_program("grid_sync_missing"))
        assert spec.cooperative
        result = run_sweep(spec, schedules=3, seed=MASTER_SEED)
        assert result.base_races
        assert all(run["error"] is None for run in result.runs)
        payload = spec.to_payload()
        assert LaunchSpec.from_payload(payload) == spec

    def test_spin_control_is_silent(self, sweeps):
        # Negative control: spin evidence forces the edge, so nothing is
        # predicted; serializing strategies starve the spinner into a
        # hang the driver tolerates.
        result = sweeps["handoff_spin_control"]
        assert result.findings == []
        assert any(run["hung"] for run in result.runs)

    def test_spin_control_not_trace_predicted(self):
        spec = LaunchSpec.from_program(schedule_program("handoff_spin_control"))
        launch = run_spec(spec, capture=True)
        trace = trace_from_rows(launch.captured, spec.layout())
        result = predict_races(trace)
        assert result.predicted == []
        assert result.forced_acquires

    def test_barrier_guard_flip_confirmed(self, sweeps):
        # Sweep-only: the racing store sits on a branch the base
        # schedule never executes, so the trace analysis cannot see it.
        result = sweeps["barrier_guard_flip"]
        assert result.base_races == []
        assert result.confirmed

    def test_drain_reorder_guard_confirmed(self, sweeps):
        # The a/b races are base-visible; the out race needs a relaxed
        # store-drain order and must still confirm via replay.
        result = sweeps["drain_reorder_guard"]
        assert result.base_races  # the unfenced a/b pairs
        assert result.confirmed
        base_keys = {race_key(r) for r in result.base_races}
        for race in result.confirmed:
            assert race_key(race) not in base_keys

    def test_confirmed_races_replay_deterministically(self, sweeps):
        # Re-running a finding's witness schedule reproduces the same
        # race, every time.
        result = sweeps["handoff_no_spin"]
        spec = LaunchSpec.from_program(schedule_program("handoff_no_spin"))
        race = result.confirmed[0]
        for _ in range(2):
            launch = run_spec(spec,
                              scheduler=race.witness.build_scheduler())
            assert race_key(race) in {race_key(r) for r in launch.races}


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_sweep_payload_is_reproducible(self, sweeps):
        spec = LaunchSpec.from_program(schedule_program("handoff_no_spin"))
        again = run_sweep(spec, schedules=SCHEDULES, seed=MASTER_SEED)
        assert json.dumps(again.to_payload(), sort_keys=True) == json.dumps(
            sweeps["handoff_no_spin"].to_payload(), sort_keys=True
        )

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_capture_stream_identical_across_engines(self, kind):
        # Same seed + scheduler kind => bit-identical capture stream and
        # reports under the engine and its oracle.
        spec = LaunchSpec.from_program(schedule_program("drain_reorder_guard"))
        def outcome():
            launch = run_spec(spec, scheduler=make_scheduler(kind, seed=11),
                              capture=True)
            stream = io.StringIO()
            save_capture(stream, spec.layout(), launch.captured_records)
            return stream.getvalue(), sorted(str(r) for r in launch.races)

        with oracle_engine():
            expected = outcome()
        assert outcome() == expected

    def test_sweep_result_round_trips_through_payload(self, sweeps):
        result = sweeps["handoff_no_spin"]
        clone = SweepResult.from_payload(result.to_payload())
        assert json.dumps(clone.to_payload(), sort_keys=True) == json.dumps(
            result.to_payload(), sort_keys=True
        )
        assert clone.confirmed[0].witness == result.confirmed[0].witness


# ----------------------------------------------------------------------
# Service path
# ----------------------------------------------------------------------
class TestServiceSweep:
    def test_inline_pool_matches_local_driver(self):
        from repro.predict.sweep import SweepRequest
        from repro.service.pipeline import ShardedDetectorPool

        spec = LaunchSpec.from_program(schedule_program("handoff_no_spin"))
        local = run_sweep(spec, schedules=3, seed=MASTER_SEED).to_payload()
        request = SweepRequest(spec, 3, MASTER_SEED)
        with ShardedDetectorPool(workers=0) as pool:
            run_payloads = [
                pool.submit_stage(0, "sweep", "run", request, {}, index)
                    .result()
                for index in range(3)
            ]
            remote = pool.submit_stage(
                0, "sweep", "finalize", request, {}, run_payloads
            ).result()
        assert json.dumps(remote, sort_keys=True) == json.dumps(
            local, sort_keys=True)

    def test_sweep_verb_end_to_end(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import RaceService, ServiceThread

        spec = LaunchSpec.from_program(schedule_program("handoff_no_spin"))
        local = run_sweep(spec, schedules=6, seed=MASTER_SEED).to_payload()
        sock = str(tmp_path / "svc.sock")
        with ServiceThread(RaceService(socket_path=sock, workers=0)):
            with ServiceClient(socket_path=sock, timeout=300.0) as client:
                remote = client.sweep(spec.to_payload(), 6, MASTER_SEED)
        assert json.dumps(remote, sort_keys=True) == json.dumps(
            local, sort_keys=True)
        result = SweepResult.from_payload(remote)
        assert result.confirmed

    def test_sweep_verb_rejects_garbage(self, tmp_path):
        from repro.service.client import ServiceClient, ServiceJobError
        from repro.service.server import RaceService, ServiceThread

        sock = str(tmp_path / "svc.sock")
        with ServiceThread(RaceService(socket_path=sock, workers=0)):
            with ServiceClient(socket_path=sock) as client:
                with pytest.raises(ServiceJobError):
                    client.sweep({"source": "__global__ void k() { }"}, 0, 1)
            with ServiceClient(socket_path=sock) as client:
                with pytest.raises(ServiceJobError):
                    client.sweep("not-a-spec", 3, 1)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
HANDOFF_CU = schedule_program("handoff_no_spin").source


@pytest.fixture()
def handoff_file(tmp_path):
    path = tmp_path / "handoff.cu"
    path.write_text(HANDOFF_CU)
    return str(path)


def _handoff_args(path):
    return [path, "--grid", "2", "--block", "32",
            "--buffer", "data:4", "--buffer", "flag:4", "--buffer", "out:4"]


class TestCli:
    def test_check_predict_flags_handoff(self, handoff_file, capsys):
        code = main(["check"] + _handoff_args(handoff_file) + ["--predict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no races detected" in out
        assert "predicted race(s) under other legal schedules" in out

    def test_check_scheduler_seed_manifests(self, handoff_file, capsys):
        # A reader-first serialized order manifests the handoff race in
        # a plain check run.
        code = main(["check"] + _handoff_args(handoff_file)
                    + ["--scheduler", "barrier-shuffle",
                       "--seed", str(7_000_026)])
        out = capsys.readouterr().out
        assert code == 1
        assert "race report(s)" in out

    def test_sweep_subcommand(self, handoff_file, tmp_path, capsys):
        witness_dir = str(tmp_path / "witnesses")
        code = main(["sweep"] + _handoff_args(handoff_file)
                    + ["--schedules", str(SCHEDULES),
                       "--seed", str(MASTER_SEED),
                       "--witness-dir", witness_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "confirmed by witness replay" in out
        files = os.listdir(witness_dir)
        assert files
        witness = WitnessSchedule.from_json(
            (tmp_path / "witnesses" / files[0]).read_text())
        assert witness.kind in SWEEP_KINDS

    def test_sweep_json_format(self, handoff_file, capsys):
        code = main(["sweep"] + _handoff_args(handoff_file)
                    + ["--schedules", "3", "--seed", "1",
                       "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        result = SweepResult.from_payload(payload)
        assert result.schedules == 3
        assert code == (1 if result.findings else 0)

    def test_sweep_rejects_zero_schedules(self, handoff_file, capsys):
        assert main(["sweep", handoff_file, "--schedules", "0"]) == 2

    def test_replay_predict(self, handoff_file, tmp_path, capsys):
        spec = LaunchSpec.from_program(schedule_program("handoff_no_spin"))
        launch = run_spec(spec, capture=True)
        capture = tmp_path / "handoff.jsonl"
        with open(capture, "w") as stream:
            save_capture(stream, spec.layout(), launch.captured_records,
                         kernel="handoff")
        code = main(["replay", str(capture), "--predict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "predicted race(s) under other legal schedules" in out
