// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: global
// repro-description: All lanes of one warp store different values to the same global word in one instruction: an intra-warp (divergence) race with architecture-defined outcome.
// repro-lint: divergent-store

__global__ void ww_intra_warp(int* data) {
    data[0] = threadIdx.x;
}
