// repro-launch: --grid 2 --block 64 --cooperative --max-steps 400000
// repro-launch: --buffer data:128 --buffer out:128
// repro-expect: no-race
// repro-category: async
// repro-description: The fixed companion: __grid_sync() (barrier.cluster under a cooperative launch) joins every warp of every block, ordering the cross-block exchange.

__global__ void grid_fixed(int* data, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid + 1;
    __grid_sync();
    out[gid] = data[127 - gid];
}
