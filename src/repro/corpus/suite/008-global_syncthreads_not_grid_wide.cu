// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: global
// repro-description: __syncthreads is block-local: a cross-block write/read around it still races.
// repro-lint: global-race

__global__ void sync_not_grid(int* data) {
    if (blockIdx.x == 0 && threadIdx.x == 0) {
        data[0] = 5;
    }
    __syncthreads();
    if (blockIdx.x == 1 && threadIdx.x == 0) {
        data[1] = data[0];
    }
}
