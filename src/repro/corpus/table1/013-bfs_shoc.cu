// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer row_offsets:257:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,80,81,82,83,84,85,86,87,88,89,90,91,92,93,94,95,96,97,98,99,100,101,102,103,104,105,106,107,108,109,110,111,112,113,114,115,116,117,118,119,120,121,122,123,124,125,126,127,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128,128
// repro-launch: --buffer columns:128:128,129,130,131,132,200,201,135,136,137,138,139,140,141,142,143,144,145,146,147,148,149,150,151,152,153,154,155,156,157,158,159,160,161,162,163,164,165,166,167,168,169,170,171,172,173,174,175,176,177,178,179,180,181,182,183,184,185,186,187,188,189,190,191,128,129,130,131,132,133,200,201,136,137,138,139,140,141,142,143,144,145,146,147,148,149,150,151,152,153,154,155,156,157,158,159,160,161,162,163,164,165,166,167,168,169,170,171,172,173,174,175,176,177,178,179,180,181,182,183,184,185,186,187,188,189,190,191
// repro-launch: --buffer cost:256 --buffer flag:4 --scalar frontier_size:128
// repro-suite: SHOC
// repro-description: SHOC-style BFS: frontier threads update neighbor costs and a 'changed' flag in global memory with no atomics or fences.  Two children are reachable from both blocks, and the flag is set from both blocks: the cross-block updates race (§6.3; the paper reports 3 global races).
// repro-note: The graph's frontier is nodes 0..127, one child each, disjoint
// repro-note: except for nodes 200 (parents 5 and 70) and 201 (parents 6 and 71):
// repro-note: one parent per block, the unsynchronized cross-block distance updates
// repro-note: of paper section 6.3.
// repro-race-space: global
// repro-paper-races: 3
// repro-paper-static-insns: 770
// repro-paper-threads: 1024

__global__ void bfs_shoc(int* row_offsets, int* columns, int* cost,
                         int* flag, int frontier_size) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < frontier_size) {
        int my_cost = cost[tid];
        int touched_shared_child = 0;
        for (int e = row_offsets[tid]; e < row_offsets[tid + 1]; e = e + 1) {
            int nb = columns[e];
            cost[nb] = my_cost + 1;
            if (nb >= 200) {
                touched_shared_child = 1;
            }
        }
        if (touched_shared_child == 1) {
            flag[0] = 1;
        }
    }
}
