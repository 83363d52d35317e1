// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: global
// repro-description: Two threads in different warps of one block write the same global word without a barrier between them.
// repro-lint: global-race

__global__ void ww_intra_block(int* data) {
    if (threadIdx.x == 0) {
        data[0] = 1;
    }
    if (threadIdx.x == 32) {
        data[0] = 2;
    }
}
