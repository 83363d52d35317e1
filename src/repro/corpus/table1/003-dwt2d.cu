// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer src:256:0,13,26,39,52,65,78,91,3,16,29,42,55,68,81,94,6,19,32,45,58,71,84,97,9,22,35,48,61,74,87,100,12,25,38,51,64,77,90,2,15,28,41,54,67,80,93,5,18,31,44,57,70,83,96,8,21,34,47,60,73,86,99,11,24,37,50,63,76,89,1,14,27,40,53,66,79,92,4,17,30,43,56,69,82,95,7,20,33,46,59,72,85,98,10,23,36,49,62,75,88,0,13,26,39,52,65,78,91,3,16,29,42,55,68,81,94,6,19,32,45,58,71,84,97,9,22,35,48,61,74,87,100,12,25,38,51,64,77,90,2,15,28,41,54,67,80,93,5,18,31,44,57,70,83,96,8,21,34,47,60,73,86,99,11,24,37,50,63,76,89,1,14,27,40,53,66,79,92,4,17,30,43,56,69,82,95,7,20,33,46,59,72,85,98,10,23,36,49,62,75,88,0,13,26,39,52,65,78,91,3,16,29,42,55,68,81,94,6,19,32,45,58,71,84,97,9,22,35,48,61,74,87,100,12,25,38,51,64,77,90,2,15,28,41,54,67,80,93,5,18,31,44,57,70,83
// repro-launch: --buffer dst:256 --scalar total:256
// repro-suite: Rodinia 3.1
// repro-description: 1-D wavelet pass with a halo bug: every block but the first rewrites its left neighbor's last output element, giving one inter-block write-write race per interior tile boundary (the paper reports 3 global races).
// repro-race-space: global
// repro-paper-races: 3
// repro-paper-static-insns: 35385
// repro-paper-threads: 2304

__global__ void dwt_pass(int* src, int* dst, int total) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int a = src[gid];
    int b = src[(gid + 1) % total];
    dst[gid] = (a + b) / 2;
    if (threadIdx.x == 0 && blockIdx.x > 0) {
        dst[gid - 1] = (src[gid - 1] + a) / 2;
    }
}
