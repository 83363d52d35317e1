// repro-launch: --grid 2 --block 64 --max-steps 4000000
// repro-launch: --buffer pixels:128:1,4,7,10,13,16,19,22,25,28,31,34,37,40,43,46,49,52,55,58,61,64,67,70,73,76,79,82,85,88,91,94,97,100,103,106,109,112,115,118,121,124,127,130,133,136,139,142,145,148,151,154,157,160,163,166,169,172,175,178,181,184,187,190,193,196,199,202,205,208,211,214,217,220,223,226,229,232,235,238,241,244,247,250,253,256,259,262,265,268,271,274,277,280,283,286,289,292,295,298,301,304,307,310,313,316,319,322,325,328,331,334,337,340,343,346,349,352,355,358,361,364,367,370,373,376,379,382
// repro-launch: --buffer out:128
// repro-suite: CUDA SDK
// repro-description: DXT compression stand-in: all 64 threads of a block vote a shared 4-entry palette in one unsynchronized instruction — 15 write-write conflicts per cell per block, 120 shared races total, exactly the count the paper reports.
// repro-race-space: shared
// repro-paper-races: 120
// repro-paper-static-insns: 1578
// repro-paper-threads: 1048576

__global__ void dxtc_compress(int* pixels, int* out) {
    __shared__ int palette[4];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    palette[tid % 4] = pixels[gid];
    __syncthreads();
    out[gid] = pixels[gid] - palette[tid % 4];
}
