// repro-launch: --grid 2 --block 32 --max-steps 400000
// repro-launch: --buffer data:64:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63
// repro-launch: --buffer out:64
// repro-expect: no-race
// repro-category: shuffle
// repro-description: Lane 0's value is broadcast to the whole warp via shfl.idx: a register move, not a shared-memory publication, so no barrier is needed.

__global__ void broadcast(int* data, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int v = data[gid];
    int leader = __shfl_sync(0xFFFFFFFF, v, 0);
    out[gid] = leader;
}
