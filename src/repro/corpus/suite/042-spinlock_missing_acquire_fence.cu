// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: locks
// repro-description: Hashtable bug #1 (§6.3): no fence after the CAS, so the protected accesses can be reordered into/above the lock acquisition.
// repro-lint: unfenced-lock

__global__ void locked(int* lock, int* data) {
    if (threadIdx.x == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                
                data[0] = data[0] + 1;
                __threadfence();
                atomicExch(&lock[0], 0);
                done = 1;
            }
        }
    }
}
