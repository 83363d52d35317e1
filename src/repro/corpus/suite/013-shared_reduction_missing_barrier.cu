// repro-launch: --grid 2 --block 128 --max-steps 400000
// repro-launch: --buffer data:256 --buffer out:2
// repro-expect: race
// repro-race-space: shared
// repro-category: shared
// repro-description: The same reduction with the per-level barrier removed: at the 64-to-32 level transition, warp 0 reads partial sums another warp wrote un-barriered.
// repro-note: The halving-stride affine extension recognises the cross-iteration
// repro-note: overlap, so the same-block pair fires (docs/static-analysis.md).
// repro-lint: shared-race

__global__ void reduction_bad(int* data, int* out) {
    __shared__ int s[128];
    int tid = threadIdx.x;
    s[tid] = data[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
        if (tid < stride) {
            s[tid] = s[tid] + s[tid + stride];
        }
    }
    __syncthreads();
    if (tid == 0) {
        out[blockIdx.x] = s[0];
    }
}
