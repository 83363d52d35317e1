// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:128:0,0,0,0,1,1,1,1,2,2,2,2,3,3,3,3,4,4,4,4,5,5,5,5,6,6,6,6,7,7,7,7,8,8,8,8,9,9,9,9,10,10,10,10,11,11,11,11,12,12,12,12,13,13,13,13,14,14,14,14,15,15,15,15,16,16,16,16,17,17,17,17,18,18,18,18,19,19,19,19,20,20,20,20,21,21,21,21,22,22,22,22,23,23,23,23,24,24,24,24,25,25,25,25,26,26,26,26,27,27,27,27,28,28,28,28,29,29,29,29,30,30,30,30,31,31,31,31
// repro-launch: --buffer out:128 --buffer cursor:4 --scalar n:128
// repro-suite: CUB
// repro-description: Run-boundary detection for unique-compaction: each thread compares its (read-only) element with its predecessor and appends boundaries through an atomic cursor.
// repro-paper-static-insns: 2484
// repro-paper-threads: 128

__global__ void select_unique(int* data, int* out, int* cursor, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        int value = data[gid];
        int is_head = 0;
        if (gid == 0) {
            is_head = 1;
        } else {
            if (data[gid - 1] != value) {
                is_head = 1;
            }
        }
        if (is_head == 1) {
            int slot = atomicAdd(&cursor[0], 1);
            out[slot] = value;
        }
    }
}
