// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: no-race
// repro-category: locks
// repro-description: A correctly fenced global spinlock: blocks take turns mutating shared state.

__global__ void locked(int* lock, int* data) {
    if (threadIdx.x == 0) {
        int done = 0;
        while (done == 0) {
            if (atomicCAS(&lock[0], 0, 1) == 0) {
                __threadfence();
                data[0] = data[0] + 1;
                __threadfence();
                atomicExch(&lock[0], 0);
                done = 1;
            }
        }
    }
}
