// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: locks
// repro-description: One word is mutated under the lock by block 0 but accessed without it by block 1: the lock only protects what every access path takes.
// repro-lint: global-race

__global__ void uncovered(int* lock, int* data) {
    if (threadIdx.x == 0) {
        if (blockIdx.x == 0) {
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
        } else {
            data[0] = 77;
        }
    }
}
