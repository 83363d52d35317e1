// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: no-race
// repro-category: locks
// repro-description: A coarse lock guarding two words; all accesses go through the lock.

__global__ void coarse(int* lock, int* data) {
    if (threadIdx.x == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                __threadfence();
                data[0] = data[0] + 1;
                data[1] = data[1] + 2;
                __threadfence();
                atomicExch(&lock[0], 0);
                done = 1;
            }
        }
    }
}
