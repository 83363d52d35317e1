// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:4
// repro-expect: no-race
// repro-category: shared
// repro-description: One warp stores the same constant to one shared word: benign by the CUDA documentation, filtered.

__global__ void shared_same_value(int* out) {
    __shared__ int s[32];
    s[0] = 3;
    __syncthreads();
    out[0] = s[0];
}
