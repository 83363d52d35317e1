// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer out:64
// repro-expect: no-race
// repro-category: shared
// repro-description: Ring stencil: write own slot, barrier, read the wrap-around right neighbor.

__global__ void stencil(int* out) {
    __shared__ int s[64];
    int tid = threadIdx.x;
    s[tid] = tid * 3;
    __syncthreads();
    out[tid] = s[(tid + 1) % 64];
}
