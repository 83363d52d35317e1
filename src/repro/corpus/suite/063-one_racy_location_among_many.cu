// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:128 --buffer shared_word:4
// repro-expect: race
// repro-race-space: global
// repro-category: misc
// repro-description: A mostly clean kernel with exactly one cross-block collision: the detector must flag that location and stay quiet on the rest.
// repro-lint: divergent-store

__global__ void one_bad_apple(int* data, int* shared_word) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid;
    if (threadIdx.x == 7) {
        shared_word[0] = blockIdx.x;
    }
}
