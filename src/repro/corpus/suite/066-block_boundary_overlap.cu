// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:192
// repro-expect: race
// repro-race-space: global
// repro-category: misc
// repro-description: Each block writes its tile plus one element of the next block's tile: a write-write race at every tile boundary.
// repro-lint: global-race

__global__ void boundary(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = blockIdx.x;
    if (threadIdx.x == 0 && blockIdx.x == 0) {
        data[gid + blockDim.x] = 100;
    }
}
