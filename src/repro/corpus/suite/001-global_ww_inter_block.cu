// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: global
// repro-description: Thread 0 of each block writes the same global word with different values; no synchronization crosses blocks.
// repro-lint: divergent-store

__global__ void ww_inter_block(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
}
