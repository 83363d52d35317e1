// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: no-race
// repro-category: locks
// repro-description: The same block-scope-fenced lock contended only within one block: block scope suffices.

__global__ void locked(int* lock, int* data) {
    if (threadIdx.x % 32 == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                __threadfence_block();
                data[0] = data[0] + 1;
                __threadfence_block();
                atomicExch(&lock[0], 0);
                done = 1;
            }
        }
    }
}
