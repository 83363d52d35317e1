// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1,8,6,4,2,0,7,5,3,1
// repro-launch: --buffer out:128
// repro-suite: CUB
// repro-description: Inclusive Hillis-Steele block scan, double-step with barriers between the read and write halves of each level.
// repro-paper-static-insns: 4451
// repro-paper-threads: 128

__global__ void block_scan(int* data, int* out) {
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
}
