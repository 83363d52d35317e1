// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer count:4 --buffer data:4 --buffer out:4
// repro-expect: no-race
// repro-category: grid
// repro-description: A grid barrier from fence + atomicAdd (release) and spin + fence (acquire): blocks may read each other's pre-barrier writes.

__global__ void grid_barrier(int* count, int* data, int* out) {
    if (threadIdx.x == 0) {
        data[blockIdx.x] = blockIdx.x + 10;
        __threadfence();
        atomicAdd(&count[0], 1);
        while (count[0] < gridDim.x) { }
        __threadfence();
        out[blockIdx.x] = data[1 - blockIdx.x];
    }
}
