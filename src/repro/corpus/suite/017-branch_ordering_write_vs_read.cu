// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: race
// repro-race-space: shared
// repro-category: branch
// repro-description: The then path writes a shared word the else path reads; which value the else path sees depends on the SIMT serialization order.
// repro-lint: shared-race

__global__ void branch_wr(int* out) {
    __shared__ int s[32];
    s[0] = 0;
    if (threadIdx.x < 16) {
        s[0] = 1;
    } else {
        out[threadIdx.x] = s[0];
    }
}
