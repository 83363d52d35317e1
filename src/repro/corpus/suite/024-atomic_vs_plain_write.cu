// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: atomics
// repro-description: One block atomically updates a word another block plainly overwrites: PTX gives no atomicity guarantee against normal stores (§3.3.2).
// repro-lint: atomic-mixed

__global__ void atomic_vs_write(int* data) {
    if (threadIdx.x == 0) {
        if (blockIdx.x == 0) {
            atomicAdd(&data[0], 1);
        } else {
            data[0] = 5;
        }
    }
}
