// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: no-race
// repro-category: global
// repro-description: Writes to one global word from different warps of a block, separated by __syncthreads: well-ordered.

__global__ void ww_barrier(int* data) {
    if (threadIdx.x == 0) {
        data[0] = 1;
    }
    __syncthreads();
    if (threadIdx.x == 33) {
        data[0] = 2;
    }
}
