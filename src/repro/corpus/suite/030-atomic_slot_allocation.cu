// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer cursor:4 --buffer data:128
// repro-expect: no-race
// repro-category: atomics
// repro-description: atomicAdd hands every thread a unique slot to write: the classic race-free work-queue idiom.

__global__ void slot_alloc(int* cursor, int* data) {
    int slot = atomicAdd(&cursor[0], 1);
    data[slot] = threadIdx.x;
}
