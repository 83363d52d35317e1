// repro-launch: --grid 2 --block 32 --max-steps 50000
// repro-launch: --buffer data:4 --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-race-space: global
// repro-category: schedule
// repro-description: Fenced flag handoff without a spin: the delayed reader always observes the flag under the fair default schedule, but no schedule is forced to — reader-first permutations race on data[0].

__global__ void handoff(int* data, int* flag, int* out) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            data[0] = 42;
            __threadfence();
            flag[0] = 1;
        }
    } else {
        if (threadIdx.x == 0) {
            for (int i = 0; i < 24; i = i + 1) { }
            int seen = flag[0];
            __threadfence();
            out[0] = data[0];
            out[1] = seen;
        }
    }
}
