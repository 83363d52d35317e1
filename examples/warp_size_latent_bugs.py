#!/usr/bin/env python
"""Finding latent warp-synchronous bugs by simulating narrower warps.

The paper notes (§3.1) that warp size is architecture-specific and that
BARRACUDA could "simulate the behavior of smaller/larger warps to find
additional latent bugs".  This example implements that idea on the
classic victim: a reduction whose final levels drop ``__syncthreads()``
because "the last 32 threads are one warp anyway".  True at warp 32;
a data race the day the code runs with a narrower warp.

Run:  python examples/warp_size_latent_bugs.py
"""

from repro.jobs import LaunchSpec
from repro.runtime.latent import find_latent_races

WARP_SYNCHRONOUS_REDUCTION = """
__global__ void warp_sync_reduce(int* data, int* out) {
    __shared__ int s[64];
    int tid = threadIdx.x;
    s[tid] = data[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    if (tid < 32) {
        s[tid] = s[tid] + s[tid + 32];   // cross-warp: barrier above covers it
        s[tid] = s[tid] + s[(tid + 16) % 32 + (tid / 32) * 32];
    }
    // "warp-synchronous" tail: no barriers, relies on 32-wide lockstep
    if (tid < 16) { s[tid] = s[tid] + s[tid + 16]; }
    if (tid < 8)  { s[tid] = s[tid] + s[tid + 8]; }
    if (tid < 4)  { s[tid] = s[tid] + s[tid + 4]; }
    if (tid < 2)  { s[tid] = s[tid] + s[tid + 2]; }
    if (tid < 1)  { s[tid] = s[tid] + s[tid + 1]; }
    if (tid == 0) { out[blockIdx.x] = s[0]; }
}
"""


def main() -> None:
    spec = LaunchSpec(
        source=WARP_SYNCHRONOUS_REDUCTION, block=64,
        buffers=(("data", 64, tuple(i % 10 for i in range(64))), ("out", 1, ())),
    )
    report = find_latent_races(spec, warp_sizes=(32, 16, 8))

    print("warp-synchronous reduction tail, detected races by warp width:")
    for finding in report.findings:
        locs = sorted(str(l) for l in finding.racy_locations)
        print(f"  warp size {finding.warp_size:>2}: {len(finding.races):>3} "
              f"report(s) at {len(locs)} location(s)")

    latent = report.latent_locations()
    print("\nlatent races (racy at narrower widths, clean at warp 32):")
    for warp_size, locations in sorted(latent.items(), reverse=True):
        sample = sorted(str(l) for l in locations)[:4]
        print(f"  warp size {warp_size:>2}: {len(locations)} location(s), "
              f"e.g. {', '.join(sample)}")

    assert not report.baseline.races, "correct at the hardware warp size"
    assert report.has_latent_races, "narrower warps expose the bug"
    print("\nThe tail is only correct while warps are >= 32 lanes wide — "
          "exactly the\nportability hazard the paper warns about.")


if __name__ == "__main__":
    main()
