// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: atomics
// repro-description: A plain read concurrent with an atomic update in the same block, no barrier: a race (atomics are not reads' friends either).
// repro-lint: atomic-mixed

__global__ void atomic_vs_read(int* data, int* out) {
    if (threadIdx.x == 0) {
        atomicAdd(&data[0], 1);
    }
    if (threadIdx.x == 32) {
        out[0] = data[0];
    }
}
