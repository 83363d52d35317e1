// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:64
// repro-expect: race
// repro-race-space: shared
// repro-category: shared
// repro-description: Each thread writes its slot and reads its left neighbor without a barrier: races across the warp boundary (lockstep saves only intra-warp pairs).
// repro-lint: shared-race

__global__ void neighbor_no_barrier(int* out) {
    __shared__ int s[64];
    s[threadIdx.x] = threadIdx.x;
    int left = 0;
    if (threadIdx.x > 0) {
        left = s[threadIdx.x - 1];
    }
    out[threadIdx.x] = left;
}
