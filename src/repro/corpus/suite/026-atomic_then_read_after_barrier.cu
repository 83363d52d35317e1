// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer out:4
// repro-expect: no-race
// repro-category: atomics
// repro-description: Atomics followed by __syncthreads followed by a read: the barrier provides the ordering the atomics do not.

__global__ void atomic_barrier_read(int* data, int* out) {
    atomicAdd(&data[0], 1);
    __syncthreads();
    if (threadIdx.x == 0) {
        out[0] = data[0];
    }
}
