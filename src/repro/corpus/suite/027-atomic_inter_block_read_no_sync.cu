// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: atomics
// repro-description: Block 0 atomically updates, block 1 reads, nothing synchronizes the blocks.
// repro-lint: atomic-mixed

__global__ void atomic_inter_block(int* data, int* out) {
    if (threadIdx.x == 0) {
        if (blockIdx.x == 0) {
            atomicAdd(&data[0], 7);
        } else {
            out[0] = data[0];
        }
    }
}
