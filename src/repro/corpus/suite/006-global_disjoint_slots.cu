// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:128
// repro-expect: no-race
// repro-category: global
// repro-description: The embarrassingly parallel pattern: every thread owns one element.

__global__ void disjoint(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid * 2;
}
