// repro-launch: --grid 1 --block 64 --max-steps 50000
// repro-launch: --buffer src:4:42 --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-race-space: shared
// repro-category: schedule
// repro-description: cp.async tile handoff without a spin: the producer warp's deferred shared store completes at wait_group 0 and is flag-released; the delayed reader observes the flag under the fair schedule, but reader-first permutations race on the shared tile word — the modern-idiom analog of handoff_no_spin.

__global__ void async_handoff(int* src, int* flag, int* out) {
    __shared__ int tile[32];
    if (threadIdx.x == 0) {
        __pipeline_memcpy_async(&tile[0], &src[0], 4);
        __pipeline_commit();
        __pipeline_wait_prior(0);
        __threadfence();
        flag[0] = 1;
    }
    if (threadIdx.x == 32) {
        for (int i = 0; i < 24; i = i + 1) { }
        int seen = flag[0];
        __threadfence();
        out[0] = tile[0];
        out[1] = seen;
    }
}
