// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:4
// repro-expect: race
// repro-race-space: shared
// repro-category: branch
// repro-description: Both paths store the same value from *different* instructions: still a branch ordering race — the same-value exemption covers only lockstep stores from one instruction, and the paper's modeling deliberately does not exempt commutative paths.
// repro-lint: shared-race

__global__ void branch_ww_same(int* out) {
    __shared__ int s[32];
    if (threadIdx.x < 16) {
        s[0] = 5;
    } else {
        s[0] = 5;
    }
    __syncthreads();
    out[0] = s[0];
}
