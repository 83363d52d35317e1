// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer data:32:1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1 --buffer out:32
// repro-expect: no-race
// repro-category: shuffle
// repro-description: An inclusive warp scan with shfl.up: out-of-segment lanes keep their own value (the defined fallback), so no predication is needed and nothing touches memory.

__global__ void scan(int* data, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int v = data[gid];
    int lane = threadIdx.x % 32;
    int t1 = __shfl_up_sync(0xFFFFFFFF, v, 1);
    if (lane >= 1) { v = v + t1; }
    int t2 = __shfl_up_sync(0xFFFFFFFF, v, 2);
    if (lane >= 2) { v = v + t2; }
    int t4 = __shfl_up_sync(0xFFFFFFFF, v, 4);
    if (lane >= 4) { v = v + t4; }
    out[gid] = v;
}
