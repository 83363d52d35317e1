"""End-to-end BARRACUDA sessions: interception, launch, detection (§4)."""

import pathlib

import pytest

from repro.cudac import compile_cuda
from repro.errors import InstrumentationError
from repro.faults import FaultPlan, FaultSpec, sites
from repro.gpu.memory import KEPLER_K520
from repro.instrument import FatBinary
from repro.jobs import LaunchSpec, launch_spec
from repro.runtime import BarracudaSession

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
}
"""

CLEAN = """
__global__ void clean(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid;
}
"""


def _session_with(source, **kwargs):
    session = BarracudaSession(**kwargs)
    session.register_module(compile_cuda(source))
    return session


class TestRegistration:
    def test_register_fat_binary_returns_handle(self):
        session = BarracudaSession()
        handle = session.register_fat_binary(FatBinary.from_module(compile_cuda(CLEAN)))
        report = session.instrumentation_report(handle)
        assert report.kernels[0].instrumented_sites > 0

    def test_unknown_kernel_rejected(self):
        session = _session_with(CLEAN)
        with pytest.raises(InstrumentationError):
            session.launch("nonexistent", grid=1, block=4)


class TestDetection:
    def test_racy_kernel_reports(self):
        session = _session_with(RACY)
        data = session.device.alloc(4)
        launch = session.launch("racy", grid=2, block=32, params={"data": data})
        assert launch.races
        assert launch.records > 0
        assert launch.queue_bytes == launch.records * 272

    def test_clean_kernel_is_silent(self):
        session = _session_with(CLEAN)
        data = session.device.alloc(64 * 4 * 2)
        launch = session.launch("clean", grid=2, block=64, params={"data": data})
        assert launch.races == []
        assert launch.barrier_divergences == []

    def test_kernel_behaviour_unchanged_by_instrumentation(self):
        session = _session_with(CLEAN)
        data = session.device.alloc(64 * 4 * 2)
        session.launch("clean", grid=2, block=64, params={"data": data})
        assert session.device.memcpy_from_device(data, 128) == list(range(128))

    def test_races_accumulate_across_launches(self):
        session = _session_with(RACY)
        data = session.device.alloc(4)
        session.launch("racy", grid=2, block=32, params={"data": data})
        session.launch("racy", grid=2, block=32, params={"data": data})
        assert len(session.launches) == 2
        assert len(session.all_races) >= 2


class TestNativeComparison:
    def test_overhead_reported(self):
        session = _session_with(CLEAN)
        data = session.device.alloc(64 * 4 * 2)
        launch = session.launch(
            "clean", grid=2, block=64, params={"data": data}, compare_native=True
        )
        assert launch.native is not None
        assert launch.overhead > 1.0

    def test_native_run_does_not_pollute_state(self):
        stateful = """
__global__ void bump(int* cursor, int* out) {
    int slot = atomicAdd(&cursor[0], 1);
    out[slot] = 1;
}
"""
        session = _session_with(stateful)
        cursor = session.device.alloc(4)
        out = session.device.alloc(4 * 64)
        launch = session.launch(
            "bump", grid=1, block=64, params={"cursor": cursor, "out": out},
            compare_native=True,
        )
        # Without snapshot/restore the monitored run would see cursor=64
        # and scribble past the buffer.
        assert session.device.memcpy_from_device(cursor, 1) == [64]
        assert launch.races == []


class TestQueuePressure:
    def test_tiny_queues_stall_but_stay_correct(self):
        session = BarracudaSession(num_queues=1, queue_capacity=4)
        session.register_module(compile_cuda(RACY))
        data = session.device.alloc(4)
        launch = session.launch("racy", grid=2, block=32, params={"data": data})
        assert launch.races
        assert launch.instrumented.stall_cycles >= 0

    def test_more_queues_spread_records(self):
        session = BarracudaSession(num_queues=4)
        session.register_module(compile_cuda(CLEAN))
        data = session.device.alloc(64 * 4 * 4)
        session.launch("clean", grid=4, block=64, params={"data": data})


class TestStallAccounting:
    """A producer stalled on a full queue (§4.2) costs the launch cycles:
    the stall the queues record is the stall the launch is charged."""

    RACY_SPEC = LaunchSpec(
        source=(EXAMPLES / "racy.cu").read_text(), grid=2,
        buffers=(("data", 4, ()),),
    )
    RING_FULL_ONCE = FaultPlan(specs=(FaultSpec(
        site=sites.QUEUE_PUSH, kind=sites.RING_FULL, nth=1, times=1,
        payload={"stall_cycles": 40}),))

    @pytest.mark.parametrize("options, stall_cycles", [
        ({"queue_capacity": 1}, 18),
        ({"queue_capacity": 4}, 16),
        ({"queue_capacity": 4096}, 0),
        ({"faults": RING_FULL_ONCE}, 40),
    ], ids=["capacity-1", "capacity-4", "capacity-4096", "ring-full-once"])
    def test_queue_stalls_are_charged_to_the_launch(self, options, stall_cycles):
        launch = launch_spec(self.RACY_SPEC, **options).launch
        result = launch.instrumented
        assert launch.total_stall_cycles == stall_cycles
        assert result.stall_cycles == launch.total_stall_cycles
        assert result.total_cycles == result.cycles + result.stall_cycles


class TestDeviceReset:
    def test_reset_reinitializes(self):
        session = _session_with(CLEAN)
        data = session.device.alloc(64 * 4 * 2)
        session.launch("clean", grid=2, block=64, params={"data": data})
        session.device_reset()
        data = session.device.alloc(64 * 4 * 2)
        launch = session.launch("clean", grid=2, block=64, params={"data": data})
        assert launch.races == []


class TestArchProfiles:
    def test_detection_is_architecture_independent(self):
        # The detector flags the race on both memory-model profiles: it
        # reasons about synchronization, not observed interleavings.
        for arch in (None, KEPLER_K520):
            kwargs = {"arch": arch} if arch else {}
            session = _session_with(RACY, **kwargs)
            data = session.device.alloc(4)
            launch = session.launch("racy", grid=2, block=32, params={"data": data})
            assert launch.races
