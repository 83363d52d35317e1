// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: race
// repro-race-space: shared
// repro-category: branch
// repro-description: Nested divergence: the inner-then path writes what the outer-else path reads.
// repro-lint: shared-race

__global__ void nested_branch(int* out) {
    __shared__ int s[32];
    s[0] = 0;
    if (threadIdx.x < 16) {
        if (threadIdx.x < 8) {
            s[0] = threadIdx.x + 1;
        }
    } else {
        out[threadIdx.x] = s[0];
    }
}
