// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: no-race
// repro-category: atomics
// repro-description: The same try-lock with a fence after the successful CAS (acquire) and before the Exch (release): properly synchronized (§3.1's lock idioms).

__global__ void lock_with_fences(int* lock, int* data) {
    if (threadIdx.x == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                __threadfence();
                data[0] = data[0] + blockIdx.x + 1;
                __threadfence();
                atomicExch(&lock[0], 0);
                done = 1;
            }
        }
    }
}
