// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer count:4 --buffer data:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: grid
// repro-description: No fence before the arrival atomic: the pre-barrier write is never released.
// repro-lint: unfenced-flag, global-race

__global__ void grid_barrier(int* count, int* data, int* out) {
    if (threadIdx.x == 0) {
        data[blockIdx.x] = blockIdx.x + 10;
        
        atomicAdd(&count[0], 1);
        while (count[0] < gridDim.x) { }
        __threadfence();
        out[blockIdx.x] = data[1 - blockIdx.x];
    }
}
