// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: no-race
// repro-category: warp
// repro-description: Each lane writes its slot, then reads its neighbor's slot in the *next* instruction: lockstep execution orders the instructions, so this is race-free (and a classic Racecheck false positive).

__global__ void lockstep_wr(int* out) {
    __shared__ int s[32];
    s[threadIdx.x] = threadIdx.x * 2;
    out[threadIdx.x] = s[(threadIdx.x + 1) % 32];
}
