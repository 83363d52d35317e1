// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:64
// repro-expect: no-race
// repro-category: shared
// repro-description: The same neighbor exchange with __syncthreads between write and read: race-free.

__global__ void neighbor_with_barrier(int* out) {
    __shared__ int s[64];
    s[threadIdx.x] = threadIdx.x;
    __syncthreads();
    int left = 0;
    if (threadIdx.x > 0) {
        left = s[threadIdx.x - 1];
    }
    out[threadIdx.x] = left;
}
