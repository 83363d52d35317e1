// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: no-race
// repro-category: misc
// repro-description: No memory traffic at all: nothing to report.

__global__ void empty(int* data) {
    int x = threadIdx.x + blockIdx.x;
}
