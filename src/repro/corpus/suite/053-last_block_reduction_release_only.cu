// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer count:4 --buffer partial:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: grid
// repro-description: The same pattern with no fence after the arrival atomic: the last block's reads are not an acquire and race with the other blocks' partial writes.
// repro-lint: global-race

__global__ void last_block_bad(int* count, int* partial, int* out) {
    if (threadIdx.x == 0) {
        partial[blockIdx.x] = blockIdx.x + 100;
        __threadfence();
        int arrived = atomicAdd(&count[0], 1);
        if (arrived == gridDim.x - 1) {
            int total = 0;
            for (int b = 0; b < gridDim.x; b = b + 1) {
                total = total + partial[b];
            }
            out[0] = total;
        }
    }
}
