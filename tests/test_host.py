"""The host-side detector: commit-order draining and its guarantees."""

import pytest

from repro.cudac import compile_cuda
from repro.gpu import GpuDevice
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.runtime import HostDetector, QueueSet
from repro.runtime.host import RowSink

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
}
"""


def _launch_with_host():
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    device.load_module(module)
    data = device.alloc(16)
    layout = LaunchConfig.of(4, 32, 32).layout()
    host = HostDetector(layout)
    queues = QueueSet(
        num_queues=4,
        capacity=8,  # small: force mid-run draining
        on_full=lambda qs, i: host.drain_some(qs, i),
    )
    device.launch(module, "racy", grid=4, block=32, params={"data": data},
                  sink=RowSink(queues, host), instrumented=True)
    host.drain(queues)
    return host, queues


def test_in_order_mode_detects_the_race():
    host, queues = _launch_with_host()
    assert host.reports.races
    assert queues.pending() == 0
    assert host.records_processed == queues.total_pushed


def test_drain_some_frees_the_requested_queue():
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    device.load_module(module)
    layout = LaunchConfig.of(4, 32, 32).layout()
    host = HostDetector(layout)
    stalls = []
    queues = QueueSet(
        num_queues=2,
        capacity=2,
        on_full=lambda qs, i: (stalls.append(i), host.drain_some(qs, i)),
    )
    data = device.alloc(16)
    device.launch(module, "racy", grid=4, block=32, params={"data": data},
                  sink=RowSink(queues, host), instrumented=True)
    host.drain(queues)
    assert stalls  # capacity 2 must have filled at some point
    assert queues.pending() == 0


def test_an_empty_drain_is_a_no_op():
    # A launch that logs nothing leaves no row log and no queued number.
    host = HostDetector(LaunchConfig.of(1, 32, 32).layout())
    assert host.drain(QueueSet()) == 0
    assert host.rows is None and host.records_processed == 0
