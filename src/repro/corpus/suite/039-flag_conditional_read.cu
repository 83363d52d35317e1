// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-category: fences
// repro-description: A non-spinning reader that only touches the data when it observed the flag, with correct fences.

__global__ void conditional_read(int* data, int* flag, int* out) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            data[0] = 99;
            __threadfence();
            flag[0] = 1;
        }
    } else {
        if (threadIdx.x == 0) {
            int seen = flag[0];
            __threadfence();
            if (seen == 1) {
                out[0] = data[0];
            }
        }
    }
}
