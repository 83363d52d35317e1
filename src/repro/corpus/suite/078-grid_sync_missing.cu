// repro-launch: --grid 2 --block 64 --cooperative --max-steps 400000
// repro-launch: --buffer data:128 --buffer out:128
// repro-expect: race
// repro-race-space: global
// repro-category: async
// repro-description: Block 1 reads the slots block 0 wrote with only a __syncthreads between: bar.sync cannot order blocks, and there is no __grid_sync.
// repro-lint: global-race

__global__ void grid_missing(int* data, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid + 1;
    __syncthreads();
    out[gid] = data[127 - gid];
}
