// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: barrier-divergence
// repro-category: misc
// repro-description: __syncthreads in both sides of a divergent branch: each execution is a divergent barrier, the classic 'it compiles to two different barriers' bug.
// repro-lint: barrier-divergence

__global__ void barrier_both_paths(int* out) {
    if (threadIdx.x % 2 == 0) {
        __syncthreads();
    } else {
        __syncthreads();
    }
    out[threadIdx.x] = 1;
}
