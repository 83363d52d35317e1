// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:4
// repro-expect: race
// repro-race-space: shared
// repro-category: warp
// repro-description: The two paths of a divergent branch store different values to one word: a branch ordering race (§3.3.1).
// repro-lint: shared-race

__global__ void divergent_ww(int* out) {
    __shared__ int s[4];
    if (threadIdx.x % 2 == 0) {
        s[0] = 1;
    } else {
        s[0] = 2;
    }
    __syncthreads();
    out[0] = s[0];
}
