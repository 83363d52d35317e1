// repro-launch: --grid 1 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-category: fences
// repro-description: Block-scope fences between two warps of one block: sufficient at block scope.

__global__ void mp_same_block(int* data, int* flag, int* out) {
    if (threadIdx.x == 32) {
        data[0] = 42;
        __threadfence_block();
        flag[0] = 1;
    }
    if (threadIdx.x == 0) {
        while (flag[0] == 0) { }
        __threadfence_block();
        out[0] = data[0];
    }
}
