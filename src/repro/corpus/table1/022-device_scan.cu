// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2,4,1,3,0,2
// repro-launch: --buffer out:128 --buffer aggregates:2
// repro-suite: CUB
// repro-description: Device scan, tile phase: each block scans its tile in shared memory and publishes the tile aggregate.
// repro-paper-static-insns: 1661
// repro-paper-threads: 128

__global__ void device_scan_tiles(int* data, int* out, int* aggregates) {
    __shared__ int s[64];
    int tid = threadIdx.x;
    s[tid] = data[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int offset = 1; offset < 64; offset = offset * 2) {
        int add = 0;
        if (tid >= offset) {
            add = s[tid - offset];
        }
        __syncthreads();
        s[tid] = s[tid] + add;
        __syncthreads();
    }
    out[blockIdx.x * blockDim.x + tid] = s[tid];
    if (tid == blockDim.x - 1) {
        aggregates[blockIdx.x] = s[tid];
    }
}
