// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: locks
// repro-description: Hashtable bug #2 (§6.3): the lock is freed by a plain unfenced store — no release, and the unlock stores race with each other too.
// repro-lint: atomic-mixed

__global__ void locked(int* lock, int* data) {
    if (threadIdx.x == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                __threadfence();
                data[0] = data[0] + 1;
                
                lock[0] = 0;
                done = 1;
            }
        }
    }
}
