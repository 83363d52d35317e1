// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:64
// repro-expect: no-race
// repro-category: shuffle
// repro-description: The fixed companion: one __syncthreads between the shuffle-fed publication and the cross-warp read makes the exchange race-free.

__global__ void shfl_exchange_ok(int* out) {
    __shared__ int s[64];
    int t = threadIdx.x;
    int j = __shfl_xor_sync(0xFFFFFFFF, t, 1);
    s[threadIdx.x] = j;
    __syncthreads();
    if (j >= 0) {
        out[threadIdx.x] = s[63 - threadIdx.x];
    }
}
