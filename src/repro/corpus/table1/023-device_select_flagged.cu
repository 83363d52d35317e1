// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60,3,10,17,24,31,38,45,52,59,2,9,16,23,30,37,44,51,58,1,8,15,22,29,36,43,50,57,0,7,14,21,28,35,42,49,56,63,6,13,20,27,34,41,48,55,62,5,12,19,26,33,40,47,54,61,4,11,18,25,32,39,46,53,60
// repro-launch: --buffer flags:128:0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1
// repro-launch: --buffer out:128 --buffer cursor:4 --scalar n:128
// repro-suite: CUB
// repro-description: Select items whose flag is set, compacting through an atomic cursor.
// repro-paper-static-insns: 2615
// repro-paper-threads: 128

__global__ void select_flagged(int* data, int* flags, int* out, int* cursor, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        if (flags[gid] == 1) {
            int slot = atomicAdd(&cursor[0], 1);
            out[slot] = data[gid];
        }
    }
}
