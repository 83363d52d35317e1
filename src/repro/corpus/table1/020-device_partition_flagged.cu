// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60,3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60
// repro-launch: --buffer flags:128:1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0,0,1,0
// repro-launch: --buffer out:128 --buffer cursors:2 --scalar n:128
// repro-suite: CUB
// repro-description: Flagged partition: selected items go to atomically allocated slots at the front, rejected ones at the back.
// repro-paper-static-insns: 2834
// repro-paper-threads: 128

__global__ void partition_flagged(int* data, int* flags, int* out,
                                  int* cursors, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        int value = data[gid];
        if (flags[gid] == 1) {
            int slot = atomicAdd(&cursors[0], 1);
            out[slot] = value;
        } else {
            int slot = atomicAdd(&cursors[1], 1);
            out[n - 1 - slot] = value;
        }
    }
}
