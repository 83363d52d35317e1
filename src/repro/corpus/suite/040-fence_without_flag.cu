// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: fences
// repro-description: A fence with no flag handshake orders nothing between threads: the data read still races.
// repro-lint: global-race

__global__ void fence_no_flag(int* data, int* out) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            data[0] = 13;
            __threadfence();
        }
    } else {
        if (threadIdx.x == 0) {
            out[0] = data[0];
        }
    }
}
