// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: no-race
// repro-category: misc
// repro-description: One thread writes then reads its own data: program order is synchronization enough.

__global__ void raw_same_thread(int* data) {
    if (threadIdx.x == 3) {
        data[0] = 11;
        data[1] = data[0] + 1;
        data[0] = data[1];
    }
}
