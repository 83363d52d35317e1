// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer matrix:256:3,10,17,24,31,38,45,2,9,16,23,30,37,44,1,8,15,22,29,36,43,0,7,14,21,28,35,42,49,6,13,20,27,34,41,48,5,12,19,26,33,40,47,4,11,18,25,32,39,46,3,10,17,24,31,38,45,2,9,16,23,30,37,44,1,8,15,22,29,36,43,0,7,14,21,28,35,42,49,6,13,20,27,34,41,48,5,12,19,26,33,40,47,4,11,18,25,32,39,46,3,10,17,24,31,38,45,2,9,16,23,30,37,44,1,8,15,22,29,36,43,0,7,14,21,28,35,42,49,6,13,20,27,34,41,48,5,12,19,26,33,40,47,4,11,18,25,32,39,46,3,10,17,24,31,38,45,2,9,16,23,30,37,44,1,8,15,22,29,36,43,0,7,14,21,28,35,42,49,6,13,20,27,34,41,48,5,12,19,26,33,40,47,4,11,18,25,32,39,46,3,10,17,24,31,38,45,2,9,16,23,30,37,44,1,8,15,22,29,36,43,0,7,14,21,28,35,42,49,6,13,20,27,34,41,48,5,12,19,26,33,40,47,4,11,18,25,32,39,46,3,10,17,24,31,38
// repro-launch: --buffer multipliers:16:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15 --scalar width:16 --scalar k:0
// repro-suite: Rodinia 3.1
// repro-description: One Gaussian-elimination update step: rows below the pivot update disjoint cells from the (read-only) pivot row.
// repro-paper-static-insns: 246
// repro-paper-threads: 1048576

__global__ void gaussian_step(int* matrix, int* multipliers, int width, int k) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int row = gid / width;
    int col = gid % width;
    if (row > k && col >= k) {
        int pivot = matrix[k * width + col];
        matrix[row * width + col] =
            matrix[row * width + col] - multipliers[row] * pivot / 100;
    }
}
