// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4 --buffer flag:4 --buffer out:4
// repro-expect: no-race
// repro-category: fences
// repro-description: Message passing across blocks with __threadfence on both sides: release/acquire at global scope.

__global__ void mp(int* data, int* flag, int* out) {
    if (blockIdx.x == 1) {
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
