// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer lock:4 --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: locks
// repro-description: Lock fenced with __threadfence_block but contended across blocks: block-scope fences cannot implement inter-block synchronization (§3.3.3).
// repro-note: Known static miss: statically identical to the within-block variant;
// repro-note: whether blocks contend is a launch-geometry fact the lint cannot see
// repro-note: (docs/static-analysis.md).

__global__ void locked(int* lock, int* data) {
    if (threadIdx.x == 0) {
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
