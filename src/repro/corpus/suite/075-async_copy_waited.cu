// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer src:64:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63
// repro-launch: --buffer out:64
// repro-expect: no-race
// repro-category: async
// repro-description: The fixed companion: wait_group 0 before the barrier completes the copy, so the post-barrier cross-read is ordered and nothing fires.

__global__ void async_waited(int* src, int* out) {
    __shared__ int tile[64];
    __pipeline_memcpy_async(&tile[threadIdx.x], &src[threadIdx.x], 4);
    __pipeline_commit();
    __pipeline_wait_prior(0);
    __syncthreads();
    out[threadIdx.x] = tile[63 - threadIdx.x];
}
