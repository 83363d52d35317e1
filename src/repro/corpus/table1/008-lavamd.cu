// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer positions:256:0,29,58,87,116,17,46,75,104,5,34,63,92,121,22,51,80,109,10,39,68,97,126,27,56,85,114,15,44,73,102,3,32,61,90,119,20,49,78,107,8,37,66,95,124,25,54,83,112,13,42,71,100,1,30,59,88,117,18,47,76,105,6,35,64,93,122,23,52,81,110,11,40,69,98,127,28,57,86,115,16,45,74,103,4,33,62,91,120,21,50,79,108,9,38,67,96,125,26,55,84,113,14,43,72,101,2,31,60,89,118,19,48,77,106,7,36,65,94,123,24,53,82,111,12,41,70,99,0,29,58,87,116,17,46,75,104,5,34,63,92,121,22,51,80,109,10,39,68,97,126,27,56,85,114,15,44,73,102,3,32,61,90,119,20,49,78,107,8,37,66,95,124,25,54,83,112,13,42,71,100,1,30,59,88,117,18,47,76,105,6,35,64,93,122,23,52,81,110,11,40,69,98,127,28,57,86,115,16,45,74,103,4,33,62,91,120,21,50,79,108,9,38,67,96,125,26,55,84,113,14,43,72,101,2,31,60,89,118,19,48,77,106,7,36,65,94,123,24,53,82,111,12,41,70,99
// repro-launch: --buffer forces:256
// repro-suite: Rodinia 3.1
// repro-description: Per-box particle interactions: positions staged into shared memory behind a barrier, then an all-pairs force loop.
// repro-paper-static-insns: 1320
// repro-paper-threads: 128000

__global__ void lavamd_forces(int* positions, int* forces) {
    __shared__ int pos[64];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    pos[tid] = positions[gid];
    __syncthreads();
    int force = 0;
    for (int j = 0; j < 64; j = j + 1) {
        force = force + (pos[tid] - pos[j]) * (pos[tid] - pos[j]) / 16;
    }
    forces[gid] = force;
}
