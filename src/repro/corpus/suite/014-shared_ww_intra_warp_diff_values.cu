// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:4
// repro-expect: race
// repro-race-space: shared
// repro-category: shared
// repro-description: One warp stores lane ids to one shared word in a single instruction: intra-warp shared-memory race.
// repro-lint: divergent-store

__global__ void shared_intra_warp(int* out) {
    __shared__ int s[32];
    s[0] = threadIdx.x;
    __syncthreads();
    out[0] = s[0];
}
