// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer data:132:0,0,0,1,1,1,2,2,2,3,3,3,4,4,4,5,5,5,6,6,6,7,7,7,8,8,8,9,9,9,10,10,10,11,11,11,12,12,12,13,13,13,14,14,14,15,15,15,16,16,16,17,17,17,18,18,18,19,19,19,20,20,20,21,21,21,22,22,22,23,23,23,24,24,24,25,25,25,26,26,26,27,27,27,28,28,28,29,29,29,30,30,30,31,31,31,32,32,32,33,33,33,34,34,34,35,35,35,36,36,36,37,37,37,38,38,38,39,39,39,40,40,40,41,41,41,42,42,999
// repro-launch: --buffer run_offsets:64 --buffer run_lengths:64 --buffer cursor:4 --scalar n:128
// repro-suite: CUB
// repro-description: Find non-trivial sorted runs: detect run heads, measure run lengths by walking the (read-only) input, and append runs longer than one through an atomic cursor.
// repro-note: data has one sentinel word of padding (999): the run-length walk's
// repro-note: loop condition evaluates data[next] at next == n (the mini compiler's
// repro-note: && does not short-circuit), and that probe must not alias the next
// repro-note: allocation.
// repro-paper-static-insns: 16479
// repro-paper-threads: 128

__global__ void find_runs(int* data, int* run_offsets, int* run_lengths,
                          int* cursor, int n) {
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
            int length = 1;
            int next = gid + 1;
            while (next < n && data[next] == value) {
                length = length + 1;
                next = next + 1;
            }
            if (length > 1) {
                int slot = atomicAdd(&cursor[0], 1);
                run_offsets[slot] = gid;
                run_lengths[slot] = length;
            }
        }
    }
}
