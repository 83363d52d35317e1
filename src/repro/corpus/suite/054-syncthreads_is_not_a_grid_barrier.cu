// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer partial:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: grid
// repro-description: Writing per-block partials, __syncthreads, then block 0 reads all partials: the block barrier orders nothing across blocks.
// repro-lint: global-race

__global__ void fake_grid_barrier(int* partial, int* out) {
    if (threadIdx.x == 0) {
        partial[blockIdx.x] = blockIdx.x + 1;
    }
    __syncthreads();
    if (blockIdx.x == 0 && threadIdx.x == 0) {
        out[0] = partial[0] + partial[1];
    }
}
