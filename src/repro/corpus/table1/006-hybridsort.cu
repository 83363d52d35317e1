// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:0,11,22,33,44,55,2,13,24,35,46,57,4,15,26,37,48,59,6,17,28,39,50,61,8,19,30,41,52,63,10,21,32,43,54,1,12,23,34,45,56,3,14,25,36,47,58,5,16,27,38,49,60,7,18,29,40,51,62,9,20,31,42,53,0,11,22,33,44,55,2,13,24,35,46,57,4,15,26,37,48,59,6,17,28,39,50,61,8,19,30,41,52,63,10,21,32,43,54,1,12,23,34,45,56,3,14,25,36,47,58,5,16,27,38,49,60,7,18,29,40,51,62,9,20,31,42,53
// repro-launch: --buffer counts:2 --scalar n:128
// repro-suite: Rodinia 3.1
// repro-description: Bucket-count phase: shared histogram built with atomics and barriers, plus an unbarriered fix-up write to one histogram cell that races with the block total (the paper reports 1 shared race).
// repro-race-space: shared
// repro-paper-races: 1
// repro-paper-static-insns: 906
// repro-paper-threads: 32768

__global__ void bucket_count(int* data, int* counts, int n) {
    __shared__ int hist[16];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    if (tid < 16) {
        hist[tid] = 0;
    }
    __syncthreads();
    if (gid < n) {
        atomicAdd(&hist[data[gid] % 16], 1);
    }
    __syncthreads();
    if (tid == 32) {
        hist[0] = hist[0] + 1;
    }
    if (tid == 0) {
        int total = 0;
        for (int i = 0; i < 16; i = i + 1) {
            total = total + hist[i];
        }
        counts[blockIdx.x] = total;
    }
}
