// repro-launch: --grid 2 --block 40 --max-steps 400000
// repro-launch: --buffer out:80
// repro-expect: no-race
// repro-category: warp
// repro-description: A block of 40 threads: the second warp is only one-quarter full; per-thread slots stay race-free with partial active masks.

__global__ void tail_warp(int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = gid + 1;
}
