// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer data:256:3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6,2,9,5,1,8,4,0,7,3,10,6
// repro-launch: --buffer partial:4 --buffer count:4 --buffer out:4
// repro-suite: CUB
// repro-description: Device-wide reduction: block partials in shared memory, then the correctly fenced last-block pattern.
// repro-paper-static-insns: 2397
// repro-paper-threads: 128

__global__ void device_reduce(int* data, int* partial, int* count, int* out) {
    __shared__ int s[64];
    int tid = threadIdx.x;
    s[tid] = data[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
        if (tid < stride) {
            s[tid] = s[tid] + s[tid + stride];
        }
        __syncthreads();
    }
    if (tid == 0) {
        partial[blockIdx.x] = s[0];
        __threadfence();
        int arrived = atomicAdd(&count[0], 1);
        __threadfence();
        if (arrived == gridDim.x - 1) {
            int total = 0;
            for (int b = 0; b < gridDim.x; b = b + 1) {
                total = total + partial[b];
            }
            out[0] = total;
        }
    }
}
