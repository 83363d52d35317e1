// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: no-race
// repro-category: global
// repro-description: All lanes store the *same* value to one word in one instruction; CUDA defines the outcome, BARRACUDA filters it (§3.3.1).

__global__ void ww_same_value(int* data) {
    data[0] = 7;
}
