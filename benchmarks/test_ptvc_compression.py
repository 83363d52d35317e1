"""Experiment E6 — §4.3.1 ablation: PTVC compression effectiveness.

The paper's motivation: dense per-thread vector clocks need O(n²) space —
hundreds of gigabytes at a million threads — while ~90% of the time
PTVCs are warp-uniform.  This benchmark measures format occupancy and the
compressed footprint on (a) the Table 1 workloads and (b) a synthetic
million-thread event stream fed straight to the detector (events are
what cost; metadata stays warp-granular).
"""

from conftest import print_table

from repro.core import BarracudaDetector
from repro.core.ptvc import PTVCFormat, PTVCManager
from repro.trace import GridLayout


def test_workload_format_occupancy(benchmark):
    """Across the Table 1 workloads, the overwhelming majority of warps
    sit in the cheap CONVERGED/DIVERGED formats (the paper's ~90%)."""
    from repro.bench import ALL_WORKLOADS
    from repro.runtime import BarracudaSession
    from repro.suite.model import Buffer

    def sweep():
        occupancy = []
        for w in ALL_WORKLOADS:
            session = BarracudaSession()
            module = w.compile()
            session.register_module(module)
            params = {}
            for buffer in w.buffers:
                addr = session.device.alloc(buffer.words * 4)
                values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
                session.device.memcpy_to_device(addr, values)
                params[buffer.name] = addr
            params.update(dict(w.scalars))
            from repro.runtime.host import HostDetector, RowSink
            from repro.runtime.queue import QueueSet
            from repro.gpu.hierarchy import LaunchConfig

            layout = LaunchConfig.of(w.grid, w.block, w.warp_size).layout()
            host = HostDetector(layout)
            queues = QueueSet(on_full=lambda qs, i: host.drain_some(qs, i))
            instrumented = session._binaries[1][1]
            session.device.launch(
                instrumented, module.kernels[0].name, grid=w.grid, block=w.block,
                warp_size=w.warp_size, params=params,
                sink=RowSink(queues, host), instrumented=True,
                max_steps=w.max_steps,
            )
            host.drain(queues)
            stats = host.detector.ptvc_stats()
            occupancy.append((w.name, stats))
        return occupancy

    occupancy = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    total_cheap = 0
    total_warps = 0
    for name, stats in occupancy:
        counts = stats.format_counts
        warps = sum(counts.values())
        cheap = counts[PTVCFormat.CONVERGED] + counts[PTVCFormat.DIVERGED]
        total_cheap += cheap
        total_warps += warps
        rows.append(
            f"{name:<34} {counts[PTVCFormat.CONVERGED]:>5} "
            f"{counts[PTVCFormat.DIVERGED]:>5} "
            f"{counts[PTVCFormat.NESTED_DIVERGED]:>7} "
            f"{counts[PTVCFormat.SPARSE]:>7} {stats.compression_ratio:>10.0f}x"
        )
    rows.append(
        f"{'warp-uniform fraction at kernel end':<48}"
        f"{total_cheap / total_warps:>10.1%}  (paper: ~90%)"
    )
    print_table(
        "§4.3.1: PTVC format occupancy at kernel end",
        f"{'benchmark':<34} {'CONV':>5} {'DIV':>5} {'NESTED':>7} "
        f"{'SPARSE':>7} {'compress':>11}",
        rows,
    )
    assert total_cheap / total_warps >= 0.9


def test_million_thread_metadata(benchmark):
    """A >1M-thread launch (like four of Table 1's benchmarks): lockstep
    steps and block barriers across all 32,768 warps keep the metadata at
    warp granularity — a dense representation would need 4 TB."""
    layout = GridLayout(num_blocks=4096, threads_per_block=256, warp_size=32)
    assert layout.total_threads == 1_048_576

    def run():
        clocks = PTVCManager(layout)
        for warp in layout.all_warps():
            clocks.end_instruction(warp)
        for block in range(64):  # a slice of blocks reaches a barrier
            clocks.barrier(block, layout.bits_by_warp(layout.block_tids(block)))
        return clocks.stats()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n1,048,576 threads: {stats.stored_entries} stored clock entries "
        f"(dense: {stats.dense_entries:,}; compression {stats.compression_ratio:,.0f}x)"
    )
    assert stats.stored_entries <= layout.total_warps + 4096
    assert stats.compression_ratio > 1e7


def test_divergence_costs_but_recovers(benchmark):
    """Branches push warps into DIVERGED/NESTED formats; reconvergence
    restores CONVERGED — compression self-heals."""
    layout = GridLayout(num_blocks=2, threads_per_block=64, warp_size=32)

    def run():
        clocks = PTVCManager(layout)
        snapshots = []
        for warp in layout.all_warps():
            # The low 16 lanes take the then path, the high 16 the else.
            clocks.branch_if(warp, (1 << 16) - 1, (1 << 32) - 1)
        snapshots.append(clocks.stats().warp_uniform_fraction)
        for warp in layout.all_warps():
            clocks.branch_else(warp)
            clocks.branch_fi(warp)
        snapshots.append(clocks.stats().warp_uniform_fraction)
        return snapshots

    during, after = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nwarp-uniform fraction: during divergence {during:.0%}, "
          f"after reconvergence {after:.0%}")
    assert after == 1.0
