// repro-launch: --grid 2 --block 128 --max-steps 4000000
// repro-launch: --buffer data:256:0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2,3,4,5,6,7,8
// repro-launch: --buffer partial:2 --buffer count:4 --buffer out:4
// repro-suite: CUDA SDK
// repro-description: threadFenceReduction: block-level shared reduction followed by the fence + atomic last-block pattern in global memory.  A 12-lane unbarriered fix-up in block 0 reads cells another warp just wrote: 12 shared races, exactly the paper's count; the global last-block protocol itself is correctly fenced.
// repro-race-space: shared
// repro-paper-races: 12
// repro-paper-static-insns: 5037
// repro-paper-threads: 16384

__global__ void tf_reduction(int* data, int* partial, int* count, int* out) {
    __shared__ int s[128];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    s[tid] = data[gid];
    if (blockIdx.x == 0 && tid < 12) {
        s[tid] = s[tid] + s[tid + 64];
    }
    __syncthreads();
    for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
        if (tid < stride) {
            s[tid] = s[tid] + s[tid + stride];
        }
        __syncthreads();
    }
    if (tid == 0) {
        partial[blockIdx.x] = s[0];
        __threadfence();
        int arrived = atomicAdd(&count[0], 1);
        __threadfence();
        if (arrived == gridDim.x - 1) {
            int total = 0;
            for (int b = 0; b < gridDim.x; b = b + 1) {
                total = total + partial[b];
            }
            out[0] = total;
        }
    }
}
