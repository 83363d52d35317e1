// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: race
// repro-race-space: shared
// repro-category: warp
// repro-description: Lane pairs collide on shared slots with different values in a single instruction: an intra-warp race.
// repro-note: Known static miss: the tid/2 address uses a division the affine
// repro-note: address model cannot express (docs/static-analysis.md).

__global__ void pairwise(int* out) {
    __shared__ int s[16];
    s[threadIdx.x / 2] = threadIdx.x;
    __syncthreads();
    out[threadIdx.x] = s[threadIdx.x / 2];
}
