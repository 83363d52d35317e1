// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:64
// repro-expect: no-race
// repro-category: shuffle
// repro-description: False-positive bait: a barrier guarded by a full-mask __all_sync vote.  The vote joins every lane, so the branch is warp-uniform by construction and the barrier can never diverge — the membermask-aware taint must not flag barrier-divergence here.

__global__ void vote_guard(int* out) {
    __shared__ int s[64];
    s[threadIdx.x] = threadIdx.x;
    int all_in = __all_sync(0xFFFFFFFF, threadIdx.x < 4096);
    if (all_in) {
        __syncthreads();
        out[threadIdx.x] = s[63 - threadIdx.x];
    }
}
