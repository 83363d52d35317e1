// repro-launch: --grid 2 --block 64 --max-steps 400000
// repro-launch: --buffer data:4:5 --buffer out:128
// repro-expect: no-race
// repro-category: misc
// repro-description: Everybody reads one word, writes private slots: reads never race with reads (exercises the shared read-map inflation).

__global__ void readers(int* data, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = data[0] + gid;
}
