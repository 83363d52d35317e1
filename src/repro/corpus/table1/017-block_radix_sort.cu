// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer keys:128:3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60,3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60
// repro-launch: --buffer out:128 --scalar bit:0
// repro-suite: CUB
// repro-description: One 1-bit split pass of a block radix sort: shared flags, a Hillis-Steele scan for ranks, barriers throughout.
// repro-paper-static-insns: 2174
// repro-paper-threads: 128

__global__ void radix_split(int* keys, int* out, int bit) {
    __shared__ int flags[64];
    __shared__ int scan[64];
    int tid = threadIdx.x;
    int key = keys[blockIdx.x * blockDim.x + tid];
    flags[tid] = (key >> bit) & 1;
    scan[tid] = flags[tid];
    __syncthreads();
    for (int offset = 1; offset < 64; offset = offset * 2) {
        int add = 0;
        if (tid >= offset) {
            add = scan[tid - offset];
        }
        __syncthreads();
        scan[tid] = scan[tid] + add;
        __syncthreads();
    }
    int ones_before = scan[tid] - flags[tid];
    int total_zeros = 64 - scan[63];
    int rank = 0;
    if (flags[tid] == 1) {
        rank = total_zeros + ones_before;
    } else {
        rank = tid - ones_before;
    }
    out[blockIdx.x * blockDim.x + rank] = key;
}
