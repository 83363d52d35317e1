// repro-launch: --grid 1 --block 64 --max-steps 50000
// repro-launch: --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-race-space: global
// repro-category: schedule
// repro-description: Post-barrier atomic-guarded stores: the fair schedule reads the guard before it is set, so only one warp ever writes out[0]; warp-0-first orders flip the guard and manifest the write-write race.

__global__ void barrier_guard(int* flag, int* out) {
    __syncthreads();
    if (threadIdx.x == 0) {
        for (int i = 0; i < 32; i = i + 1) { }
        atomicExch(&flag[0], 1);
        out[0] = 2;
    }
    if (threadIdx.x == 32) {
        int seen = atomicAdd(&flag[0], 0);
        if (seen == 1) {
            out[0] = 7;
        }
    }
}
