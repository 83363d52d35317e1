// repro-launch: --grid 1 --block 128 --max-steps 4000000
// repro-launch: --buffer wall:128:0,31,62,93,27,58,89,23,54,85,19,50,81,15,46,77,11,42,73,7,38,69,3,34,65,96,30,61,92,26,57,88,22,53,84,18,49,80,14,45,76,10,41,72,6,37,68,2,33,64,95,29,60,91,25,56,87,21,52,83,17,48,79,13,44,75,9,40,71,5,36,67,1,32,63,94,28,59,90,24,55,86,20,51,82,16,47,78,12,43,74,8,39,70,4,35,66,0,31,62,93,27,58,89,23,54,85,19,50,81,15,46,77,11,42,73,7,38,69,3,34,65,96,30,61,92,26,57
// repro-launch: --buffer result:128 --scalar rounds:1
// repro-suite: Rodinia 3.1
// repro-description: Row-relaxation DP in shared memory; one iteration is missing its barrier, so lanes read neighbor cells another warp is rewriting (the paper reports 7 shared races).
// repro-race-space: shared
// repro-paper-races: 7
// repro-paper-static-insns: 285
// repro-paper-threads: 118528

__global__ void pathfinder_rows(int* wall, int* result, int rounds) {
    __shared__ int prev[128];
    int tid = threadIdx.x;
    prev[tid] = wall[tid];
    __syncthreads();
    for (int r = 0; r < rounds; r = r + 1) {
        int best = prev[tid];
        if (tid > 0) {
            int left = prev[tid - 1];
            if (left < best) {
                best = left;
            }
        }
        if (tid < blockDim.x - 1) {
            int right = prev[tid + 1];
            if (right < best) {
                best = right;
            }
        }
        prev[tid] = best + wall[tid] % 10;
    }
    result[tid] = prev[tid];
}
