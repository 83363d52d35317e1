// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: barrier-divergence
// repro-category: branch
// repro-description: __syncthreads executed while half the warp is inactive: barrier divergence (§3.3.2), likely to hang real hardware.
// repro-lint: barrier-divergence

__global__ void barrier_divergence(int* out) {
    if (threadIdx.x < 16) {
        __syncthreads();
    }
    out[threadIdx.x] = threadIdx.x;
}
