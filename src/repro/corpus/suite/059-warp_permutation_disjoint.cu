// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: no-race
// repro-category: warp
// repro-description: Each lane writes a distinct slot through a permutation, then reads its own slot next instruction: disjoint writes plus lockstep ordering.

__global__ void permutation(int* out) {
    __shared__ int s[32];
    s[(threadIdx.x + 16) % 32] = threadIdx.x;
    out[threadIdx.x] = s[threadIdx.x];
}
