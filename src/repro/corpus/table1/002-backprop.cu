// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer input:64:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63
// repro-launch: --buffer weights:256:0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3,4,5,6,0,1,2,3
// repro-launch: --buffer hidden:4 --scalar n_in:64
// repro-suite: Rodinia 3.1
// repro-description: Neural-net layer forward pass: one block per hidden unit, weighted inputs reduced in shared memory with barriers.
// repro-paper-static-insns: 272
// repro-paper-threads: 1048576

__global__ void backprop_forward(int* input, int* weights, int* hidden, int n_in) {
    __shared__ int partial[64];
    int tid = threadIdx.x;
    int unit = blockIdx.x;
    partial[tid] = input[tid] * weights[unit * n_in + tid];
    __syncthreads();
    for (int s = blockDim.x / 2; s > 0; s = s / 2) {
        if (tid < s) {
            partial[tid] = partial[tid] + partial[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        hidden[unit] = partial[0];
    }
}
