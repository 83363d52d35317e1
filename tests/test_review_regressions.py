"""Regression tests for bugs found during code review.

Each test pins one fixed defect; the docstring names the failure mode.
"""

import pytest

from repro.errors import SimulationError, TraceError
from repro.gpu import GpuDevice
from repro.gpu.memory import GlobalMemory, KEPLER_K520
from repro.ptx import parse_ptx
from repro.trace import GridLayout, TraceBuilder, global_loc

HEADER = ".version 4.3\n.target sm_35\n.address_size 64\n"


def _module(body, params=".param .u64 out", extra=""):
    return parse_ptx(
        HEADER + extra
        + f".visible .entry k(\n    {params}\n)\n{{\n"
        + ".reg .u32 %r<16>;\n.reg .u64 %rd<8>;\n.reg .pred %p<4>;\n"
        + body + "\n}\n"
    )


class TestBackwardReconvergence:
    def test_loop_header_ipdom_still_executes_both_arms(self):
        """A divergent branch whose arms both jump back to the loop
        header has its IPDOM *behind* the branch; the reconvergence test
        must be arrival (==), not pc ordering (>=), or both arms are
        skipped unexecuted."""
        module = _module(
            "mov.u32 %r1, %tid.x;\n"
            "mov.u32 %r2, 0;\n"          # loop counter
            "mov.u32 %r3, 0;\n"          # accumulator
            "$L_head:\n"
            "setp.ge.u32 %p1, %r2, 3;\n"
            "@%p1 bra $L_end;\n"
            "add.u32 %r2, %r2, 1;\n"
            "setp.eq.u32 %p2, %r1, 0;\n"   # diverge: lane 0 vs others
            "@%p2 bra $L_even;\n"
            "add.u32 %r3, %r3, 10;\n"      # odd lanes' arm
            "bra.uni $L_head;\n"
            "$L_even:\n"
            "add.u32 %r3, %r3, 1;\n"       # lane 0's arm
            "bra.uni $L_head;\n"
            "$L_end:\n"
            "ld.param.u64 %rd1, [out];\n"
            "cvt.u64.u32 %rd2, %r1;\n"
            "mul.lo.u64 %rd2, %rd2, 4;\n"
            "add.u64 %rd1, %rd1, %rd2;\n"
            "st.global.u32 [%rd1], %r3;\n"
            "ret;"
        )
        device = GpuDevice()
        out = device.alloc(16)
        device.launch(module, "k", grid=1, block=4, warp_size=4,
                      params={"out": out})
        # Each lane ran its arm 3 times; before the fix all arms were
        # skipped and every lane stored 0.
        assert device.memcpy_from_device(out, 4) == [3, 30, 30, 30]


class TestPredicatedControlFlow:
    def test_partial_predicated_return_rejected(self):
        """`@%p ret` with a partially-true guard used to retire the whole
        warp, silently dropping the other lanes' remaining work."""
        module = _module(
            "mov.u32 %r1, %tid.x;\n"
            "setp.eq.u32 %p1, %r1, 0;\n"
            "@%p1 ret;\n"
            "mov.u32 %r2, 1;\n"
            "ret;"
        )
        with pytest.raises(SimulationError):
            GpuDevice().launch(module, "k", grid=1, block=4, params={"out": 0})

    def test_predicated_call_enters_only_guarded_lanes(self):
        """`@%p call` used to enter the callee with every active lane."""
        module = parse_ptx(HEADER + """
.visible .func mark(
    .param .u64 slot
)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [slot];
    mov.u32 %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}

.visible .entry k(
    .param .u64 out
)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 2;
    ld.param.u64 %rd1, [out];
    cvt.u64.u32 %rd2, %r1;
    mul.lo.u64 %rd2, %rd2, 4;
    add.u64 %rd3, %rd1, %rd2;
    @%p1 call.uni mark, %rd3;
    ret;
}
""")
        device = GpuDevice()
        out = device.alloc(16)
        device.launch(module, "k", grid=1, block=4, warp_size=4,
                      params={"out": out})
        assert device.memcpy_from_device(out, 4) == [1, 1, 0, 0]


class TestLocalSpace:
    def test_local_loads_and_stores_round_trip(self):
        """`.local` accesses used to crash on a stale attribute after the
        call-frame refactor; they are thread-private storage."""
        module = _module(
            "mov.u32 %r1, %tid.x;\n"
            "add.u32 %r2, %r1, 100;\n"
            "mov.u64 %rd7, 16;\n"
            "st.local.u32 [%rd7], %r2;\n"
            "ld.local.u32 %r3, [%rd7];\n"
            "ld.param.u64 %rd1, [out];\n"
            "cvt.u64.u32 %rd2, %r1;\n"
            "mul.lo.u64 %rd2, %rd2, 4;\n"
            "add.u64 %rd1, %rd1, %rd2;\n"
            "st.global.u32 [%rd1], %r3;\n"
            "ret;"
        )
        device = GpuDevice()
        out = device.alloc(16)
        device.launch(module, "k", grid=1, block=4, warp_size=4,
                      params={"out": out})
        # Same local address per thread, yet values stay thread-private.
        assert device.memcpy_from_device(out, 4) == [100, 101, 102, 103]


class TestDrainClosure:
    def test_relaxed_drain_respects_per_byte_order_transitively(self):
        """Committing a store that overlaps the probed range must also
        commit older stores overlapping *that* store, or the older one
        later clobbers it (per-location coherence)."""
        mem = GlobalMemory(KEPLER_K520)
        base = mem.alloc(0x200) - 0x100  # addresses below read as offsets
        mem.store(0, base + 0x100, 4, 0x11111111)  # older, bytes 0x100-0x103
        mem.store(0, base + 0x102, 4, 0x22222222)  # newer, bytes 0x102-0x105
        # Atomic probes 0x104 only: overlaps the newer store only.
        mem.atomic(1, base + 0x104, 1, lambda v: v)
        mem.drain_all()
        # Byte 0x102 must hold the newer store's low byte, not the older
        # store's high bytes.
        assert mem.main.read(base + 0x102, 1) == 0x22
        assert mem.main.read(base + 0x103, 1) == 0x22


class TestTraceGrammar:
    def test_fi_without_else_rejected(self):
        """An `if ... fi` with no `else` desynchronized the compressed
        detector's clock folding; the grammar now rejects it."""
        layout = GridLayout(num_blocks=1, threads_per_block=4, warp_size=4)
        builder = TraceBuilder(layout)
        builder.branch_if(0, [0, 1])
        with pytest.raises(TraceError):
            builder.branch_fi(0)

    def test_barrier_active_set_validated(self):
        """A hand-built Barrier whose active set claims paused threads
        made the detectors disagree; feasibility now rejects it."""
        from repro.trace import Barrier, check_feasible

        layout = GridLayout(num_blocks=1, threads_per_block=4, warp_size=4)
        builder = TraceBuilder(layout)
        builder.branch_if(0, [0])
        trace = builder.build()
        trace.append(Barrier(block=0, active=frozenset({0, 1, 2, 3})))
        with pytest.raises(TraceError):
            check_feasible(trace)


class TestPruneInvalidation:
    def test_vector_load_invalidates_address_register(self):
        """A v2/v4 load overwriting an address register must invalidate
        the redundant-logging table, or a later access through that
        register is wrongly pruned."""
        from repro.instrument import Instrumenter

        module = _module(
            "ld.param.u64 %rd1, [out];\n"
            "ld.global.u32 %r1, [%rd1];\n"
            # The vector load clobbers %r1 (tracked as a store value
            # register is not at stake here; the key is the reload below
            # must be logged because %r1 changed... use address reg):
            "ld.global.v2.u64 {%rd1, %rd2}, [%rd3];\n"
            "ld.global.u32 %r2, [%rd1];\n"
            "ret;"
        )
        _instrumented, report = Instrumenter(prune=True).instrument_module(module)
        # Both scalar loads plus the vector load are logged: the second
        # scalar load reads through a clobbered %rd1.
        assert report.kernels[0].instrumented_sites == 3
