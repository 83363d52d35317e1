// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer counter:4
// repro-expect: no-race
// repro-category: atomics
// repro-description: Every thread of the grid atomicAdds one counter: atomics never race with atomics.

__global__ void atomic_counter(int* counter) {
    atomicAdd(&counter[0], 1);
}
