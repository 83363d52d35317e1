// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60,3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60
// repro-launch: --buffer out:2
// repro-suite: CUB
// repro-description: Block-wide tree reduction with per-level barriers.
// repro-paper-static-insns: 2456
// repro-paper-threads: 1024

__global__ void block_reduce(int* data, int* out) {
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
        out[blockIdx.x] = s[0];
    }
}
