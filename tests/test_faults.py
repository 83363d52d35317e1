"""repro.faults: plans, the injector, and the queue/replay fault paths."""

import io
import json

import pytest

from repro.core.races import DetectorReports
from repro.errors import ReproError
from repro.events import LogRecord, RecordKind
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    NULL_FAULTS,
    fault_plan_from_json,
    load_fault_plan,
    resolve_faults,
    sites,
)
from repro.obs import make_observability
from repro.runtime.queue import QueueSet
from repro.runtime.replay import (
    load_capture,
    record_line_to_record,
    record_lines_to_records,
    save_capture,
)
from repro.trace.operations import Space


def _load(warp, tid, addr, pc=1):
    return LogRecord(kind=RecordKind.LOAD, warp=warp, active=frozenset({tid}),
                     addrs={tid: (Space.SHARED, addr)}, pc=pc)


def _plan(*specs, seed=0):
    return FaultPlan(specs=tuple(specs), seed=seed)


# ----------------------------------------------------------------------
# Plan validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trip(self):
        plan = _plan(
            FaultSpec(site=sites.WORKER_BATCH, kind=sites.CRASH, nth=2),
            FaultSpec(site=sites.CLIENT_SEND, kind=sites.TRUNCATE_FRAME,
                      probability=0.5, times=3, payload={"keep": 7}),
            seed=42,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert fault_plan_from_json(json.dumps(plan.to_dict())) == plan

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="nope.nope", kind=sites.CRASH, nth=1)

    def test_kind_must_match_site(self):
        with pytest.raises(FaultPlanError, match="does not understand"):
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.CRASH, nth=1)

    def test_exactly_one_trigger(self):
        with pytest.raises(FaultPlanError, match="exactly one trigger"):
            FaultSpec(site=sites.WORKER_BATCH, kind=sites.CRASH)
        with pytest.raises(FaultPlanError, match="exactly one trigger"):
            FaultSpec(site=sites.WORKER_BATCH, kind=sites.CRASH,
                      nth=1, probability=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"nth": 0}, {"nth": -3}, {"probability": 0.0}, {"probability": 1.5},
        {"after_bytes": -1},
    ])
    def test_trigger_ranges(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultSpec(site=sites.WORKER_BATCH, kind=sites.CRASH, **kwargs)

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fields"):
            FaultSpec.from_dict({"site": sites.WORKER_BATCH,
                                 "kind": sites.CRASH, "nth": 1, "bogus": 1})

    def test_bad_json_is_clean_error(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            fault_plan_from_json("}{")

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read fault plan"):
            load_fault_plan(str(tmp_path / "nope.json"))

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 7,
            "faults": [{"site": "worker.batch", "kind": "poison", "nth": 1}],
        }))
        plan = load_fault_plan(str(path))
        assert plan.seed == 7
        assert plan.specs[0].kind == sites.POISON


# ----------------------------------------------------------------------
# Injector semantics
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_nth_trigger_fires_once(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.RING_FULL, nth=3)))
        fired = [injector.check(sites.QUEUE_PUSH) for _ in range(6)]
        assert [f is not None for f in fired] == [
            False, False, True, False, False, False]
        assert injector.faults_injected == 1
        assert injector.hits(sites.QUEUE_PUSH) == 6

    def test_times_budget(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.RING_FULL,
                      nth=2, times=2)))
        fired = [injector.check(sites.QUEUE_PUSH) for _ in range(5)]
        assert [f is not None for f in fired] == [
            False, True, True, False, False]

    def test_probability_is_deterministic_per_seed(self):
        def run(seed):
            injector = FaultInjector(_plan(
                FaultSpec(site=sites.CLIENT_SEND, kind=sites.CONNECTION_RESET,
                          probability=0.3, times=0), seed=seed))
            return [injector.check(sites.CLIENT_SEND) is not None
                    for _ in range(50)]

        assert run(1) == run(1)
        assert run(1) != run(2)
        assert any(run(1))

    def test_after_bytes_trigger(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.CLIENT_SEND, kind=sites.TRUNCATE_FRAME,
                      after_bytes=100)))
        assert injector.check(sites.CLIENT_SEND, nbytes=60) is None
        assert injector.check(sites.CLIENT_SEND, nbytes=60) is not None

    def test_sites_are_independent(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.RING_FULL, nth=1)))
        assert injector.check(sites.CLIENT_SEND) is None
        assert injector.check(sites.QUEUE_PUSH) is not None

    def test_injected_faults_counted_on_obs(self):
        obs = make_observability(metrics=True)
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.RING_FULL, nth=1)),
            obs=obs)
        injector.check(sites.QUEUE_PUSH)
        snapshot = obs.metrics.snapshot()
        counter = snapshot["repro_faults_injected_total"]
        assert counter["values"] == {"queue.push,ring-full": 1}
        assert injector.summary() == {"queue.push ring-full": 1}

    def test_resolve_faults(self):
        assert resolve_faults(None) is None
        assert resolve_faults(NULL_FAULTS) is None
        injector = FaultInjector(_plan())
        assert resolve_faults(injector) is injector
        # Plans resolve to a fresh injector for convenience.
        resolved = resolve_faults(_plan())
        assert isinstance(resolved, FaultInjector)


# ----------------------------------------------------------------------
# Queue-layer faults (§4.2 ring hazards)
# ----------------------------------------------------------------------
class TestQueueFaults:
    def test_null_faults_changes_nothing(self):
        plain = QueueSet(num_queues=1, capacity=16)
        nulled = QueueSet(num_queues=1, capacity=16, faults=NULL_FAULTS)
        for qs in (plain, nulled):
            for i in range(5):
                qs.emit(_load(0, 0, 4 * i))
        assert plain.queues[0].stats == nulled.queues[0].stats

    def test_ring_full_forces_stall_but_loses_nothing(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.RING_FULL, nth=2,
                      payload={"stall_cycles": 11})))
        drained = []
        qs = QueueSet(num_queues=1, capacity=16,
                      on_full=lambda s, i: drained.extend(
                          s.drain_in_order(4)),
                      faults=injector)
        for i in range(4):
            qs.emit(_load(0, 0, 4 * i))
        stats = qs.queues[0].stats
        assert stats.stalls == 1
        assert stats.stall_cycles == 11
        # Lossless: every record is still observable, in order.
        got = drained + qs.drain_in_order()
        assert len(got) == 4
        assert [r.addrs[0][1] for r in got] == [0, 4, 8, 12]

    def test_drop_commit_hides_record_until_next_push(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.DROP_COMMIT, nth=2)))
        qs = QueueSet(num_queues=1, capacity=16, faults=injector)
        qs.emit(_load(0, 0, 0))
        qs.emit(_load(0, 0, 4))  # written but not committed
        queue = qs.queues[0]
        assert queue.write_head == 2
        assert queue.commit_index == 1
        assert queue.pending() == 1
        # The next healthy push re-commits past the gap: nothing lost.
        qs.emit(_load(0, 0, 8))
        assert queue.commit_index == 3
        assert [r.addrs[0][1] for r in qs.drain_in_order()] == [0, 4, 8]

    def test_trailing_drop_commit_is_lost(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.QUEUE_PUSH, kind=sites.DROP_COMMIT, nth=3)))
        qs = QueueSet(num_queues=1, capacity=16, faults=injector)
        for i in range(3):
            qs.emit(_load(0, 0, 4 * i))
        assert [r.addrs[0][1] for r in qs.drain_in_order()] == [0, 4]


# ----------------------------------------------------------------------
# Capture/replay line faults
# ----------------------------------------------------------------------
class TestReplayFaults:
    LINE = ('{"kind": "load", "warp": 0, "active": [0], "pc": 3, '
            '"addrs": {"0": ["shared", 8]}}')

    def test_garbage_line_raises_repro_error(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.REPLAY_LINE, kind=sites.GARBAGE_LINE, nth=1)))
        with pytest.raises(ReproError, match="garbage JSON"):
            record_line_to_record(self.LINE, faults=injector)

    def test_truncate_line_raises_repro_error(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.REPLAY_LINE, kind=sites.TRUNCATE_LINE,
                      nth=1)))
        with pytest.raises(ReproError):
            record_line_to_record(self.LINE, faults=injector)

    def test_batch_decode_injects_per_line(self):
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.REPLAY_LINE, kind=sites.GARBAGE_LINE, nth=3)))
        with pytest.raises(ReproError):
            record_lines_to_records([self.LINE] * 4, faults=injector)
        # Two healthy lines decode fine under the same (spent) injector.
        assert len(record_lines_to_records([self.LINE] * 2,
                                           faults=injector)) == 2

    def test_load_capture_with_faults(self, tmp_path):
        from repro.trace.layout import GridLayout

        layout = GridLayout(num_blocks=1, threads_per_block=2, warp_size=2)
        record = _load(0, 0, 0)
        stream = io.StringIO()
        save_capture(stream, layout, [record, record, record], kernel="k")
        stream.seek(0)
        injector = FaultInjector(_plan(
            FaultSpec(site=sites.REPLAY_LINE, kind=sites.TRUNCATE_LINE,
                      nth=2)))
        with pytest.raises(ReproError):
            load_capture(stream, faults=injector)


# ----------------------------------------------------------------------
# Session plumbing
# ----------------------------------------------------------------------
class TestSessionFaults:
    SOURCE = """
__global__ void racy(int* data) {
    data[1] = 7;
}
"""

    def test_session_accepts_plan_and_reports_match_fault_free(self):
        from repro.runtime import BarracudaSession

        plan = _plan(FaultSpec(site=sites.QUEUE_PUSH, kind=sites.RING_FULL,
                               nth=1))
        faulty = BarracudaSession(faults=plan)
        handle = faulty.register_module(__import__(
            "repro.cudac", fromlist=["compile_cuda"]).compile_cuda(self.SOURCE))
        clean = BarracudaSession()
        clean.register_module(__import__(
            "repro.cudac", fromlist=["compile_cuda"]).compile_cuda(self.SOURCE))
        kwargs = dict(grid=1, block=4, warp_size=4)
        faulty_launch = faulty.launch(
            "racy", params={"data": faulty.device.alloc(8)}, **kwargs)
        clean_launch = clean.launch(
            "racy", params={"data": clean.device.alloc(8)}, **kwargs)
        # A forced ring-full stall is lossless: identical findings, but
        # the injected stall shows up in the queue accounting.
        assert len(faulty_launch.reports.races) == len(
            clean_launch.reports.races)
        assert faulty.faults.faults_injected == 1
        assert faulty_launch.total_stalls >= clean_launch.total_stalls
