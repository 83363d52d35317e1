// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer reference:256:0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3,4,5,6,7,8,0,1,2,3
// repro-launch: --buffer out:256 --scalar rounds:4
// repro-suite: Rodinia 3.1
// repro-description: Needleman-Wunsch wavefront: a shared DP row advanced one anti-diagonal per barrier.
// repro-paper-static-insns: 1006
// repro-paper-threads: 495616

__global__ void needle_dp(int* reference, int* out, int rounds) {
    __shared__ int row[64];
    int tid = threadIdx.x;
    row[tid] = reference[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int r = 0; r < rounds; r = r + 1) {
        int left = 0;
        if (tid > 0) {
            left = row[tid - 1];
        }
        __syncthreads();
        row[tid] = row[tid] + left + r;
        __syncthreads();
    }
    out[blockIdx.x * blockDim.x + tid] = row[tid];
}
