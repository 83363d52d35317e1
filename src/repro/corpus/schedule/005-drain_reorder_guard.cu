// repro-launch: --grid 2 --block 32 --arch k520 --max-steps 50000
// repro-launch: --buffer a:4 --buffer b:4 --buffer out:4
// repro-expect: race
// repro-race-space: global
// repro-category: schedule
// repro-description: Two-variable reorder on the relaxed profile: randomized store draining lets b's visible value run ahead of a's (impossible under FIFO drains), enabling the guarded out[0] store that collides with the writer's (the a/b races are base-visible; the out race is drain-order-only).

__global__ void drain_reorder(int* a, int* b, int* out) {
    if (blockIdx.x == 0) {
        if (threadIdx.x == 0) {
            for (int j = 1; j < 6; j = j + 1) {
                a[0] = j;
                b[0] = j;
            }
            out[0] = 2;
        }
    } else {
        if (threadIdx.x == 0) {
            for (int i = 0; i < 16; i = i + 1) {
                int rb = b[0];
                int ra = a[0];
                if (ra < rb) {
                    out[0] = 5;
                }
            }
        }
    }
}
