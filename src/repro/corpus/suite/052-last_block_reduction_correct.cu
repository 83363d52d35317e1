// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer count:4 --buffer partial:4 --buffer out:4
// repro-expect: no-race
// repro-category: grid
// repro-description: threadFenceReduction's last-block pattern with the arrival atomic fenced on both sides (acquire-release): the last block may read every partial.

__global__ void last_block(int* count, int* partial, int* out) {
    if (threadIdx.x == 0) {
        partial[blockIdx.x] = blockIdx.x + 100;
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
