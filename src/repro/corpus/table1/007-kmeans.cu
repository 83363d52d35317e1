// repro-launch: --grid 4 --block 64 --max-steps 4000000
// repro-launch: --buffer points:256:0,17,34,51,68,85,102,119,136,153,170,187,204,221,238,255,16,33,50,67,84,101,118,135,152,169,186,203,220,237,254,15,32,49,66,83,100,117,134,151,168,185,202,219,236,253,14,31,48,65,82,99,116,133,150,167,184,201,218,235,252,13,30,47,64,81,98,115,132,149,166,183,200,217,234,251,12,29,46,63,80,97,114,131,148,165,182,199,216,233,250,11,28,45,62,79,96,113,130,147,164,181,198,215,232,249,10,27,44,61,78,95,112,129,146,163,180,197,214,231,248,9,26,43,60,77,94,111,128,145,162,179,196,213,230,247,8,25,42,59,76,93,110,127,144,161,178,195,212,229,246,7,24,41,58,75,92,109,126,143,160,177,194,211,228,245,6,23,40,57,74,91,108,125,142,159,176,193,210,227,244,5,22,39,56,73,90,107,124,141,158,175,192,209,226,243,4,21,38,55,72,89,106,123,140,157,174,191,208,225,242,3,20,37,54,71,88,105,122,139,156,173,190,207,224,241,2,19,36,53,70,87,104,121,138,155,172,189,206,223,240,1,18,35,52,69,86,103,120,137,154,171,188,205,222,239
// repro-launch: --buffer centroids:8:10,40,80,120,160,200,230,250 --buffer membership:256 --scalar n_points:256
// repro-launch: --scalar n_clusters:8
// repro-suite: Rodinia 3.1
// repro-description: Assignment step: each point scans the (read-only) centroids and writes its own membership slot.
// repro-paper-static-insns: 384
// repro-paper-threads: 495616

__global__ void kmeans_assign(int* points, int* centroids, int* membership,
                              int n_points, int n_clusters) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n_points) {
        int p = points[gid];
        int best = 0;
        int best_dist = 1000000;
        for (int c = 0; c < n_clusters; c = c + 1) {
            int d = p - centroids[c];
            if (d < 0) {
                d = 0 - d;
            }
            if (d < best_dist) {
                best_dist = d;
                best = c;
            }
        }
        membership[gid] = best;
    }
}
