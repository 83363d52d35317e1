#!/usr/bin/env python
"""PTVC compression at a million threads (paper §1, §4.3.1).

A happens-before detector nominally keeps one vector clock per thread
with one entry per thread: at 1,048,576 threads that is 4 TB of clocks
before any shadow memory.  BARRACUDA's observation is that warps execute
in lockstep and blocks synchronize at barriers, so per-thread clocks are
overwhelmingly warp- and block-uniform.  This example drives the
detector's clock state for a 1M-thread launch directly and prints the
compressed footprint.

Run:  python examples/million_threads.py
"""

import time

from repro.core.ptvc import PTVCFormat, PTVCManager
from repro.core.structured import StructuredVC
from repro.trace import GridLayout


def main() -> None:
    layout = GridLayout(num_blocks=4096, threads_per_block=256, warp_size=32)
    print(f"launch: {layout.num_blocks} blocks x {layout.threads_per_block} "
          f"threads = {layout.total_threads:,} threads "
          f"({layout.total_warps:,} warps)")

    clocks = PTVCManager(layout)
    started = time.time()

    # Every warp retires a few lockstep instructions.
    for _ in range(3):
        for warp in layout.all_warps():
            clocks.end_instruction(warp)
    # Every block hits __syncthreads.
    for block in range(layout.num_blocks):
        clocks.barrier(block, layout.bits_by_warp(layout.block_tids(block)))
    # A sprinkle of point-to-point synchronization (lock hand-offs) puts
    # a few threads in the SPARSEVC format.
    channel = StructuredVC(layout)
    for tid in range(0, layout.total_threads, 131_072):
        channel.join(clocks.materialize(tid))  # the REL rule: publish,
        clocks.increment(tid)                  # then inc_t
        clocks.acquire_into(tid + 1, channel)

    elapsed = time.time() - started
    stats = clocks.stats()
    dense_bytes = stats.dense_entries * 4

    print(f"\nprocessed in {elapsed:.1f}s")
    print(f"dense per-thread VCs would be : {stats.dense_entries:,} entries "
          f"(~{dense_bytes / 2**40:.1f} TiB)")
    print(f"compressed footprint          : {stats.stored_entries:,} entries")
    print(f"compression ratio             : {stats.compression_ratio:,.0f}x")
    print("format occupancy:")
    for fmt in PTVCFormat:
        print(f"  {fmt.value:<16} {stats.format_counts[fmt]:>8} warps")
    print(f"warp-uniform fraction         : {stats.warp_uniform_fraction:.2%} "
          "(paper: ~90% of the time)")


if __name__ == "__main__":
    main()
