// repro-launch: --grid 1 --block 32 --max-steps 400000
// repro-launch: --buffer out:32
// repro-expect: no-race
// repro-category: shuffle
// repro-description: A ballot whose immediate mask covers only half the warp, executed by all lanes: the excluded lanes get 0 (the defined fallback).  Race-free at runtime, but the partial-vote-sync lint flags the mask mismatch.
// repro-note: partial-vote-sync is the expected static warning here: the mask
// repro-note: excludes live lanes in convergent code, so those lanes receive the
// repro-note: defined fallback (0), not the ballot.  Dynamically this is race-free:
// repro-note: the fallback is defined, not a race.
// repro-lint-exceptions: partial-vote-sync

__global__ void partial_ballot(int* out) {
    int b = __ballot_sync(0x0000FFFF, threadIdx.x % 2 == 0);
    out[threadIdx.x] = b;
}
