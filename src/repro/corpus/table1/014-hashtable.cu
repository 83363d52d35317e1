// repro-launch: --grid 2 --block 32 --max-steps 2000000
// repro-launch: --buffer locks:4 --buffer table:4
// repro-launch: --buffer keys:64:1,8,15,22,29,4,11,18,25,0,7,14,21,28,3,10,17,24,31,6,13,20,27,2,9,16,23,30,5,12,19,26,1,8,15,22,29,4,11,18,25,0,7,14,21,28,3,10,17,24,31,6,13,20,27,2,9,16,23,30,5,12,19,26
// repro-suite: GPU-TM
// repro-description: The buggy GPU-TM hashtable of §6.3: per-bucket locks taken with an unfenced atomicCAS and released with a plain store, all in global memory (the paper reports 3 global races, invisible to shared-memory-only tools).
// repro-race-space: global
// repro-paper-races: 3
// repro-paper-static-insns: 193
// repro-paper-threads: 64

__global__ void hashtable_insert(int* locks, int* table, int* keys) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int bucket = keys[gid] % 4;
    int done = 0;
    while (done == 0) {
        if (atomicCAS(&locks[bucket], 0, 1) == 0) {
            table[bucket] = table[bucket] + keys[gid];
            locks[bucket] = 0;
            done = 1;
        }
    }
}
