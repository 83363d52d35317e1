// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:4
// repro-expect: race
// repro-race-space: shared
// repro-category: shared
// repro-description: Two warps of a block write one shared word with no barrier between them.
// repro-lint: shared-race

__global__ void shared_ww(int* out) {
    __shared__ int s[64];
    if (threadIdx.x == 0) {
        s[0] = 1;
    }
    if (threadIdx.x == 32) {
        s[0] = 2;
    }
    __syncthreads();
    if (threadIdx.x == 0) {
        out[0] = s[0];
    }
}
