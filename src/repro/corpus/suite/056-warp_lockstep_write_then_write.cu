// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:4
// repro-expect: no-race
// repro-category: warp
// repro-description: The whole warp stores to one word twice, in two consecutive instructions (each same-value): ordered by lockstep, benign within each instruction.

__global__ void lockstep_ww(int* out) {
    __shared__ int s[4];
    s[0] = 1;
    s[0] = 2;
    __syncthreads();
    out[0] = s[0];
}
