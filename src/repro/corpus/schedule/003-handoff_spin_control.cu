// repro-launch: --grid 2 --block 32 --max-steps 20000
// repro-launch: --buffer data:4 --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-category: schedule
// repro-description: The same handoff with a spinning reader: ordered under every schedule; the negative control for the spin-evidence relaxation rule.

__global__ void handoff_spin(int* data, int* flag, int* out) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            data[0] = 42;
            __threadfence();
            flag[0] = 1;
        }
    } else {
        if (threadIdx.x == 0) {
            while (flag[0] == 0) { }
            __threadfence();
            out[0] = data[0];
        }
    }
}
