// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: no-race
// repro-category: branch
// repro-description: The two paths of a divergent branch touch disjoint locations: concurrent but conflict-free.

__global__ void branch_disjoint(int* out) {
    __shared__ int s[64];
    if (threadIdx.x < 16) {
        s[threadIdx.x] = 1;
    } else {
        s[threadIdx.x + 16] = 2;
    }
    __syncthreads();
    out[threadIdx.x] = s[threadIdx.x];
}
