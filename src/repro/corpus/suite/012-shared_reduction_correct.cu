// repro-launch: --grid 2 --block 128 --max-steps 400000
// repro-launch: --buffer data:256 --buffer out:2
// repro-expect: no-race
// repro-category: shared
// repro-description: Classic tree reduction in shared memory with a barrier at each level.

__global__ void reduction_ok(int* data, int* out) {
    __shared__ int s[128];
    int tid = threadIdx.x;
    s[tid] = data[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
        if (tid < stride) {
            s[tid] = s[tid] + s[tid + stride];
        }
        __syncthreads();
    }
    if (tid == 0) {
        out[blockIdx.x] = s[0];
    }
}
