"""Warp-size simulation: the paper's future-work latent-bug finder."""

from dataclasses import replace

from repro.jobs import LaunchSpec, launch_spec
from repro.runtime.latent import find_latent_races

WARP_SYNC_TAIL = """
__global__ void tail(int* data, int* out) {
    __shared__ int s[64];
    int tid = threadIdx.x;
    s[tid] = data[tid];
    __syncthreads();
    if (tid < 32) { s[tid] = s[tid] + s[tid + 32]; }
    if (tid < 16) { s[tid] = s[tid] + s[tid + 16]; }
    if (tid < 8)  { s[tid] = s[tid] + s[tid + 8]; }
    if (tid == 0) { out[0] = s[0]; }
}
"""

PROPERLY_BARRIERED = """
__global__ void safe(int* data, int* out) {
    __shared__ int s[64];
    int tid = threadIdx.x;
    s[tid] = data[tid];
    __syncthreads();
    for (int stride = 32; stride > 0; stride = stride / 2) {
        if (tid < stride) { s[tid] = s[tid] + s[tid + stride]; }
        __syncthreads();
    }
    if (tid == 0) { out[0] = s[0]; }
}
"""


def _spec(source):
    return LaunchSpec(
        source=source, block=64,
        buffers=(("data", 64, tuple(range(64))), ("out", 1, ())),
    )


def _report(source):
    return find_latent_races(_spec(source), warp_sizes=(32, 16, 8))


def test_warp_synchronous_tail_is_latent_racy():
    report = _report(WARP_SYNC_TAIL)
    assert not report.baseline.races  # clean at the hardware width
    assert report.baseline.warp_size == 32
    latent = report.latent_locations()
    assert 16 in latent and 8 in latent
    assert all(loc.space.value == "shared" for loc in latent[16])
    assert report.has_latent_races


def test_narrower_widths_expose_more():
    report = _report(WARP_SYNC_TAIL)
    # At warp 16 the tid<16 level breaks; at warp 8 the tid<8 level too.
    assert len(report.at(8).racy_locations) >= len(report.at(16).racy_locations)


def test_properly_barriered_code_is_clean_at_every_width():
    report = _report(PROPERLY_BARRIERED)
    for finding in report.findings:
        assert not finding.races, f"warp {finding.warp_size}"
    assert not report.has_latent_races


def test_results_are_functionally_identical_across_widths():
    # The kernel still computes the same value at every simulated width
    # (the race is about ordering guarantees, not this interleaving).
    spec = _spec(WARP_SYNC_TAIL)
    values = {
        warp_size: launch_spec(replace(spec, warp_size=warp_size))
        .read_buffers()["out"][0]
        for warp_size in (32, 16, 8)
    }
    # The tail stops at stride 8, so s[0] holds the strided partial sum
    # of lanes {0, 8, 16, ..., 56}: 224 for data = range(64).
    assert values == {32: 224, 16: 224, 8: 224}
