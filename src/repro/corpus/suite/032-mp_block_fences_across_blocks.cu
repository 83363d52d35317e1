// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer flag:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: fences
// repro-description: The same message passing with __threadfence_block on both sides: block-scope fences do not synchronize across blocks (the Figure 4 cta/cta row).
// repro-lint: insufficient-fence-scope

__global__ void mp(int* data, int* flag, int* out) {
    if (blockIdx.x == 1) {
        if (threadIdx.x == 0) {
            data[0] = 42;
            __threadfence_block();
            flag[0] = 1;
        }
    } else {
        if (threadIdx.x == 0) {
            while (flag[0] == 0) { }
            __threadfence_block();
            out[0] = data[0];
        }
    }
}
