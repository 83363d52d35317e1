// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4
// repro-expect: race
// repro-race-space: global
// repro-category: global
// repro-description: Block 0 writes a global word, block 1 reads it; nothing orders the two blocks.
// repro-lint: global-race

__global__ void rw_inter_block(int* data) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            data[0] = 7;
        }
    } else {
        if (threadIdx.x == 0) {
            data[1] = data[0];
        }
    }
}
