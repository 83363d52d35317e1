// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: atomics
// repro-description: A try-lock built from bare atomicCAS/atomicExch with no fences: atomics alone imply no synchronization, so the critical sections race (§3.3.2).
// repro-lint: unfenced-lock

__global__ void lock_no_fences(int* lock, int* data) {
    if (threadIdx.x == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                data[0] = data[0] + blockIdx.x + 1;
                atomicExch(&lock[0], 0);
                done = 1;
            }
        }
    }
}
