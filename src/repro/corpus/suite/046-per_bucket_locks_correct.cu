// repro-launch: --grid 2 --block 32 --max-steps 2000000
// repro-launch: --buffer locks:8 --buffer table:8
// repro-launch: --buffer keys:64:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63
// repro-expect: no-race
// repro-category: locks
// repro-description: Fine-grained per-bucket locks (the fixed hashtable): every thread locks its bucket with correct fences.

__global__ void buckets(int* locks, int* table, int* keys) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int bucket = keys[gid] % 8;
    int done = 0;
    while (done == 0) {
        if (atomicCAS(&locks[bucket], 0, 1) == 0) {
            __threadfence();
            table[bucket] = table[bucket] + gid;
            __threadfence();
            atomicExch(&locks[bucket], 0);
            done = 1;
        }
    }
}
