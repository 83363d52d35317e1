// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:64
// repro-expect: race
// repro-race-space: shared
// repro-category: shuffle
// repro-description: A warp-shuffle stage publishes its result to shared memory and the *other* warp reads it with no barrier: the shuffle is register-only and emits no events, but the cross-warp shared exchange it feeds races.
// repro-lint: shared-race

__global__ void shfl_exchange(int* out) {
    __shared__ int s[64];
    int t = threadIdx.x;
    int j = __shfl_xor_sync(0xFFFFFFFF, t, 1);
    s[threadIdx.x] = j;
    if (j >= 0) {
        out[threadIdx.x] = s[63 - threadIdx.x];
    }
}
