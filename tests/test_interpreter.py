"""The PTX interpreter: semantics, divergence, barriers, logging."""

import time
from contextlib import nullcontext

import pytest

from repro.cudac import compile_cuda
from repro.errors import SimulationError, StepLimitExceeded
from repro.events import RecordKind
from repro.gpu import GpuDevice, KernelExecution, ListSink
from repro.gpu.engine import _ARITH_COMPILERS
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.jobs import alloc_buffers
from repro.ptx import isa, parse_ptx
from repro.ptx.ast import Instruction
from repro.suite import ALL_PROGRAMS, SCHEDULE_PROGRAMS

import oracle

HEADER = ".version 4.3\n.target sm_35\n.address_size 64\n"


def module_with(body: str, params: str = ".param .u64 out", extra: str = ""):
    return parse_ptx(
        HEADER
        + extra
        + f".visible .entry k(\n    {params}\n)\n{{\n"
        + "    .reg .u32 %r<16>;\n    .reg .u64 %rd<8>;\n    .reg .pred %p<4>;\n"
        + body
        + "\n}\n"
    )


def run_store_per_thread(body: str, grid=1, block=4, warp_size=4, extra=""):
    """Run a kernel whose epilogue stores %r15 to out[gid]."""
    epilogue = """
    mov.u32 %r13, %tid.x;
    mov.u32 %r12, %ctaid.x;
    mov.u32 %r11, %ntid.x;
    mad.lo.u32 %r13, %r12, %r11, %r13;
    ld.param.u64 %rd7, [out];
    cvt.u64.u32 %rd6, %r13;
    mul.lo.u64 %rd6, %rd6, 4;
    add.u64 %rd7, %rd7, %rd6;
    st.global.u32 [%rd7], %r15;
    ret;
"""
    module = module_with(body + epilogue, extra=extra)
    device = GpuDevice()
    out = device.alloc(grid * block * 4)
    device.launch(module, "k", grid=grid, block=block, warp_size=warp_size,
                  params={"out": out})
    return device.memcpy_from_device(out, grid * block)


class TestArithmetic:
    def test_add_sub_mul(self):
        values = run_store_per_thread(
            "mov.u32 %r1, 10;\nadd.u32 %r1, %r1, 5;\nsub.u32 %r1, %r1, 3;\n"
            "mul.lo.u32 %r15, %r1, 4;"
        )
        assert values == [48] * 4

    def test_signed_wrapping(self):
        values = run_store_per_thread(
            "mov.s32 %r1, -1;\nshr.s32 %r15, %r1, 1;"  # arithmetic shift
        )
        assert values == [0xFFFFFFFF] * 4  # -1 stored as unsigned bytes

    def test_unsigned_shift(self):
        values = run_store_per_thread(
            "mov.u32 %r1, 8;\nshr.u32 %r15, %r1, 2;"
        )
        assert values == [2] * 4

    def test_division_semantics(self):
        values = run_store_per_thread(
            "mov.s32 %r1, -7;\nmov.s32 %r2, 2;\ndiv.s32 %r1, %r1, %r2;\n"
            "mov.u32 %r15, %r1;\nadd.u32 %r15, %r15, 100;"
        )
        # C-style truncation: -7 / 2 == -3; stored value -3 + 100 = 97.
        assert values == [97] * 4

    def test_division_by_zero_yields_zero(self):
        values = run_store_per_thread(
            "mov.u32 %r1, 5;\nmov.u32 %r2, 0;\ndiv.u32 %r15, %r1, %r2;"
        )
        assert values == [0] * 4

    def test_setp_selp(self):
        values = run_store_per_thread(
            "mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 2;\n"
            "selp.u32 %r15, 100, 200, %p1;"
        )
        assert values == [100, 100, 200, 200]

    def test_mad_hi_lo(self):
        values = run_store_per_thread(
            "mov.u32 %r1, 3;\nmad.lo.u32 %r15, %r1, 4, 5;"
        )
        assert values == [17] * 4

    def test_bitwise(self):
        values = run_store_per_thread(
            "mov.u32 %r1, 12;\nand.b32 %r2, %r1, 10;\nor.b32 %r3, %r2, 1;\n"
            "xor.b32 %r15, %r3, 2;"
        )
        assert values == [(12 & 10 | 1) ^ 2] * 4

    def test_unknown_opcode_raises(self):
        module = module_with("frobnicate.u32 %r1, %r2;\nret;")
        device = GpuDevice()
        with pytest.raises(SimulationError):
            device.launch(module, "k", grid=1, block=4, params={"out": 0})


class TestShiftAmounts:
    """PTX clamps a shift: the amount is an unsigned 32-bit value and
    anything above the operand width behaves as the width.  Unclamped,
    ``x << 4294967295`` built a 512 MiB integer per lane and a negative
    amount in an ``s32`` register was a ``ValueError`` traceback."""

    AMOUNTS = (-1, 31, 32, 33, 2**31, 2**32 - 1)
    SEED = 0x80000001

    @staticmethod
    def _shifted(opcode: str, amount: int, engine: str):
        bits = int(opcode[-2:])
        reg, wide = ("%rd", True) if bits == 64 else ("%r", False)
        body = (
            f"mov.u32 %r1, %tid.x;\nadd.u32 %r1, %r1, {TestShiftAmounts.SEED};\n"
            + ("cvt.u64.u32 %rd1, %r1;\nshl.b64 %rd1, %rd1, 32;\n"
               "cvt.u64.u32 %rd2, %r1;\nor.b64 %rd1, %rd1, %rd2;\n" if wide else "")
            + f"mov.s32 %r2, {amount};\n"
            + f"{opcode} {reg}3, {reg}1, %r2;\n"
            + "ld.param.u64 %rd7, [out];\nmov.u32 %r4, %tid.x;\n"
            + "cvt.u64.u32 %rd6, %r4;\nmul.lo.u64 %rd6, %rd6, 8;\n"
            + "add.u64 %rd7, %rd7, %rd6;\n"
            + (f"st.global.u64 [%rd7], %rd3;" if wide
               else "cvt.u64.u32 %rd3, %r3;\nst.global.u64 [%rd7], %rd3;")
            + "\nret;"
        )
        module = module_with(body)
        device = GpuDevice()
        out = device.alloc(4 * 8)
        start = time.perf_counter()
        if engine == "oracle":
            with oracle.oracle_engine():
                device.launch(module, "k", grid=1, block=4, params={"out": out})
        else:
            device.launch(module, "k", grid=1, block=4, params={"out": out})
        assert time.perf_counter() - start < 2.0
        words = device.memcpy_from_device(out, 8)
        return [low | high << 32 for low, high in zip(words[::2], words[1::2])]

    @pytest.mark.parametrize("amount", AMOUNTS)
    @pytest.mark.parametrize("opcode", ["shl.b32", "shr.u32", "shr.s32", "shl.b64"])
    def test_amount_clamps_to_the_operand_width(self, opcode, amount):
        bits = int(opcode[-2:])
        mask = (1 << bits) - 1
        clamped = min(amount & 0xFFFFFFFF, bits)
        expected = []
        for tid in range(4):
            value = self.SEED + tid
            if bits == 64:
                value |= value << 32
            if opcode.startswith("shl"):
                expected.append((value << clamped) & mask)
            elif opcode == "shr.s32":
                expected.append(((value - (1 << 32)) >> clamped) & mask)
            else:
                expected.append(value >> clamped)
        assert self._shifted(opcode, amount, "engine") == expected
        assert self._shifted(opcode, amount, "oracle") == expected


#: Arithmetic ``isa.py`` classifies (so the instrumenter and the static
#: checker know it needs no logging) that the engine does not execute yet.
NOT_YET_IMPLEMENTED = (
    "set", "mul24", "sad", "clz", "rcp", "sqrt", "rsqrt", "ex2", "lg2",
    "sin", "cos",
)


class TestInstructionSet:
    def test_decoder_table_is_pinned_to_the_isa(self):
        """An opcode added to ``isa.py`` without semantics, or semantics
        added without an ISA entry, fails here."""
        implemented = set(KernelExecution._DECODERS)
        assert implemented <= isa.ALL_OPCODES
        assert set(_ARITH_COMPILERS) <= isa.ARITHMETIC_OPCODES
        assert set(_ARITH_COMPILERS) <= implemented
        assert isa.ALL_OPCODES - implemented == set(NOT_YET_IMPLEMENTED)

    def test_oracle_covers_the_same_arithmetic(self):
        assert set(oracle._ARITH) == set(_ARITH_COMPILERS)


#: Every special register the engine models, as ``LaunchConfig`` keys.
ALL_SPECIALS = [
    *((name, dim) for name in ("%tid", "%ntid", "%ctaid", "%nctaid")
      for dim in "xyz"),
    ("%laneid", None), ("%warpid", None), ("%nwarpid", None), ("%gridid", None),
]


def _specials_kernel():
    """Each thread stores every special register, in ``ALL_SPECIALS``
    order, to its own ``len(ALL_SPECIALS)`` words of ``out``."""
    flat = """
    mov.u32 %r1, %tid.z;
    mov.u32 %r2, %ntid.y;
    mov.u32 %r3, %tid.y;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mov.u32 %r4, %ctaid.z;
    mov.u32 %r2, %nctaid.y;
    mov.u32 %r3, %ctaid.y;
    mad.lo.u32 %r4, %r4, %r2, %r3;
    mov.u32 %r2, %nctaid.x;
    mov.u32 %r3, %ctaid.x;
    mad.lo.u32 %r4, %r4, %r2, %r3;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %ntid.y;
    mul.lo.u32 %r2, %r2, %r3;
    mov.u32 %r3, %ntid.z;
    mul.lo.u32 %r2, %r2, %r3;
    mad.lo.u32 %r1, %r4, %r2, %r1;
    ld.param.u64 %rd1, [out];
    cvt.u64.u32 %rd2, %r1;
    mul.lo.u64 %rd2, %rd2, STRIDE;
    add.u64 %rd1, %rd1, %rd2;
""".replace("STRIDE", str(4 * len(ALL_SPECIALS)))
    stores = "".join(
        f"    mov.u32 %r5, {name}{'.' + dim if dim else ''};\n"
        f"    st.global.u32 [%rd1+{4 * k}], %r5;\n"
        for k, (name, dim) in enumerate(ALL_SPECIALS)
    )
    return module_with(flat + stores + "    ret;")


class TestSpecialRegisters:
    def test_tid_ctaid_laneid(self):
        values = run_store_per_thread(
            "mov.u32 %r15, %laneid;", grid=1, block=4, warp_size=2
        )
        assert values == [0, 1, 0, 1]

    @pytest.mark.parametrize("engine", ["production", "oracle"])
    @pytest.mark.parametrize("grid, block, warp_size", [
        ((2, 2, 1), (3, 5, 2), 8),   # 30 threads: a 6-lane last warp
        ((1, 3, 2), (4, 1, 3), 32),  # a block narrower than its warp
        ((3, 1, 1), (2, 2, 2), 4),
    ])
    def test_every_special_register_reaches_the_engine(
            self, engine, grid, block, warp_size):
        config = LaunchConfig.of(grid, block, warp_size)
        threads = config.total_threads
        device = GpuDevice()
        out = device.alloc(threads * 4 * len(ALL_SPECIALS))
        with oracle.oracle_engine() if engine == "oracle" else nullcontext():
            device.launch(_specials_kernel(), "k", grid=grid, block=block,
                          warp_size=warp_size, params={"out": out})
        words = device.memcpy_from_device(out, threads * len(ALL_SPECIALS))
        for tid in range(threads):
            row = words[tid * len(ALL_SPECIALS):(tid + 1) * len(ALL_SPECIALS)]
            expected = config.special_registers(tid)
            assert dict(zip(ALL_SPECIALS, row)) == expected, tid

    def test_an_unmodeled_special_register_fails_where_reached(self):
        # ``%clock`` parses but has no value here: one error when a
        # thread reads it, none when no thread does.
        with pytest.raises(SimulationError, match="%clock is not modeled"):
            run_store_per_thread("mov.u32 %r15, %clock;")
        run_store_per_thread("@%p1 mov.u32 %r15, %clock;\nmov.u32 %r15, 0;")


#: Corpus programs that run ``shfl``, ``vote`` or ``cp.async``.
WARP_OP_PROGRAMS = [
    entry for entry in (*ALL_PROGRAMS, *SCHEDULE_PROGRAMS)
    if any(isinstance(statement, Instruction)
           and statement.opcode in ("shfl", "vote", "cp")
           for statement in entry.compile().kernels[0].body)
]

DEVICE_FUNCTION_SOURCE = """
__device__ void bump(int* out, int slot, int by) {
    out[slot] = out[slot] + by;
}
__global__ void k(int* out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    bump(out, i, i);
    bump(out, i, 1);
}
"""


def _operand_compiles(module, kernel, grid, block, warp_size, buffers,
                      cooperative=False):
    """How often one launch compiles an operand (a value or an address),
    each buffer four times its words so the grid can grow."""
    calls = []

    def counted(method):
        def wrapper(self, operand):
            calls.append(operand)
            return method(self, operand)
        return wrapper

    device = GpuDevice()
    params = alloc_buffers(
        device, [(name, words * 4, init) for name, words, init in buffers])
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_compile_value", "_compile_address"):
            patch.setattr(KernelExecution, name,
                          counted(getattr(KernelExecution, name)))
        device.launch(module, kernel, grid=grid, block=block,
                      warp_size=warp_size, params=params,
                      cooperative=cooperative)
    return len(calls)


class TestDecodeOnce:
    """Every statement is compiled when its body is decoded, once per
    launch, however many warps then run it."""

    def test_every_decoder_is_a_decode_method(self):
        for opcode, decode in KernelExecution._DECODERS.items():
            assert decode.__name__.startswith("_decode_"), opcode
            assert getattr(KernelExecution, decode.__name__) is decode

    def test_warp_ops_are_in_the_corpus(self):
        names = {entry.name for entry in WARP_OP_PROGRAMS}
        assert {"shfl_butterfly_reduction", "ballot_partial_mask_convergent",
                "async_copy_commit_groups"} <= names

    @pytest.mark.parametrize("entry", WARP_OP_PROGRAMS,
                             ids=lambda entry: entry.name)
    def test_a_warp_op_program_compiles_its_operands_once(self, entry):
        spec = entry.spec
        module = spec.compile()
        counts = [
            _operand_compiles(module, module.kernels[0].name, grid, spec.block,
                              spec.warp_size, spec.buffers, spec.cooperative)
            for grid in (1, 4)
        ]
        assert counts[0] == counts[1] > 0

    def test_a_device_function_compiles_its_operands_once(self):
        module = compile_cuda(DEVICE_FUNCTION_SOURCE)
        assert module.functions
        counts = [_operand_compiles(module, "k", grid, 64, 32, [("out", 256, ())])
                  for grid in (1, 4)]
        assert counts[0] == counts[1] > 0


#: Statements that cannot execute, each under a guard no thread holds.
MALFORMED = {
    "shfl without a mode": "shfl.sync.b32 %r1, %r2, 1, 31, -1;",
    "shfl with four operands": "shfl.sync.down.b32 %r1, %r2, 1, 31;",
    "vote without a mode": "vote.sync.b32 %r1, %p2, -1;",
    "vote with two operands": "vote.sync.ballot.b32 %r1, %p2;",
    "cp.async of 3 bytes": "cp.async.ca.shared.global [%rd1], [%rd2], 3;",
    "cp.async to a register": "cp.async.ca.shared.global %rd1, [%rd2], 4;",
    "cp.async.wait_group of a register": "cp.async.wait_group %r1;",
    "cp.async.wait_group of -1": "cp.async.wait_group -1;",
    "call to no function": "call.uni nowhere, %rd1;",
    "call with a missing argument": "call.uni helper;",
    "barrier.cluster on a plain launch": "barrier.cluster.sync;",
}

HELPER = """
.visible .func helper(
    .param .u64 ptr
)
{
    ret;
}
"""


class TestMalformedUnderAFalseGuard:
    """A statement that cannot execute fails the launch only where a
    thread reaches it, on both engines (``_raise_when_reached``)."""

    @staticmethod
    def _launch(statement):
        device = GpuDevice()
        device.launch(module_with(statement + "\nret;", extra=HELPER), "k",
                      grid=2, block=8, warp_size=4, params={"out": 0})

    @pytest.mark.parametrize("engine", ["production", "oracle"])
    @pytest.mark.parametrize("statement", MALFORMED.values(), ids=list(MALFORMED))
    def test_only_a_reached_statement_fails(self, engine, statement):
        with oracle.oracle_engine() if engine == "oracle" else nullcontext():
            self._launch("@%p1 " + statement)
            with pytest.raises(SimulationError):
                self._launch(statement)


#: Well-formed warp-synchronous statements; under a guard no thread
#: holds, a register membermask reads as nothing.
UNREACHED_SYNC = {
    "shfl, immediate mask": "shfl.sync.down.b32 %r1, %r2, 1, 31, 0xffffffff;",
    "shfl, register mask": "shfl.sync.down.b32 %r1, %r2, 1, 31, %r3;",
    "vote, immediate mask": "vote.sync.ballot.b32 %r1, %p2, 0xffffffff;",
    "vote, register mask": "vote.sync.ballot.b32 %r1, %p2, %r3;",
}


@pytest.mark.parametrize("engine", ["production", "oracle"])
@pytest.mark.parametrize("statement", UNREACHED_SYNC.values(),
                         ids=list(UNREACHED_SYNC))
def test_a_sync_no_lane_reaches_checks_no_membermask(engine, statement):
    """``@%p1 shfl.sync``/``vote.sync`` under an always-false ``%p1``
    only advances the pc: no lane names a membermask to check."""
    with oracle.oracle_engine() if engine == "oracle" else nullcontext():
        GpuDevice().launch(module_with("@%p1 " + statement + "\nret;"), "k",
                           grid=2, block=8, warp_size=4, params={"out": 0})


class TestDivergence:
    def test_then_path_executes_first(self):
        # Both paths write a per-thread slot; the else path should not
        # observe then-path effects in its own registers.
        values = run_store_per_thread(
            "mov.u32 %r1, %tid.x;\n"
            "setp.lt.u32 %p1, %r1, 2;\n"
            "@!%p1 bra $L_else;\n"
            "mov.u32 %r15, 1;\n"
            "bra.uni $L_end;\n"
            "$L_else:\n"
            "mov.u32 %r15, 2;\n"
            "$L_end:\n"
        )
        assert values == [1, 1, 2, 2]

    def test_divergent_loop_trip_counts(self):
        values = run_store_per_thread(
            "mov.u32 %r1, %tid.x;\n"
            "mov.u32 %r15, 0;\n"
            "$L_loop:\n"
            "setp.ge.u32 %p1, %r15, %r1;\n"
            "@%p1 bra $L_done;\n"
            "add.u32 %r15, %r15, 1;\n"
            "bra.uni $L_loop;\n"
            "$L_done:\n"
        )
        assert values == [0, 1, 2, 3]

    def test_divergent_return_rejected(self):
        module = module_with(
            "mov.u32 %r1, %tid.x;\n"
            "setp.lt.u32 %p1, %r1, 2;\n"
            "@!%p1 bra $L_else;\n"
            "ret;\n"  # returning from inside a divergent region
            "$L_else:\n"
            "mov.u32 %r2, 1;\n"
            "ret;"
        )
        device = GpuDevice()
        with pytest.raises(SimulationError):
            device.launch(module, "k", grid=1, block=4, params={"out": 0})


class TestBarriers:
    def test_barrier_with_shared_decl(self):
        module = parse_ptx(
            HEADER
            + ".visible .entry k(.param .u64 out)\n{\n"
            + ".reg .u32 %r<16>;\n.reg .u64 %rd<8>;\n"
            + ".shared .align 4 .b8 smem[16];\n"
            + "mov.u32 %r1, %tid.x;\n"
            + "mov.u64 %rd1, smem;\ncvt.u64.u32 %rd2, %r1;\n"
            + "mul.lo.u64 %rd2, %rd2, 4;\nadd.u64 %rd2, %rd1, %rd2;\n"
            + "add.u32 %r2, %r1, 50;\nst.shared.u32 [%rd2], %r2;\n"
            + "bar.sync 0;\n"
            + "xor.b32 %r3, %r1, 1;\ncvt.u64.u32 %rd3, %r3;\n"
            + "mul.lo.u64 %rd3, %rd3, 4;\nadd.u64 %rd3, %rd1, %rd3;\n"
            + "ld.shared.u32 %r15, [%rd3];\n"
            + "ld.param.u64 %rd4, [out];\ncvt.u64.u32 %rd5, %r1;\n"
            + "mul.lo.u64 %rd5, %rd5, 4;\nadd.u64 %rd4, %rd4, %rd5;\n"
            + "st.global.u32 [%rd4], %r15;\nret;\n}\n"
        )
        device = GpuDevice()
        out = device.alloc(16)
        device.launch(module, "k", grid=1, block=4, warp_size=2, params={"out": out})
        assert device.memcpy_from_device(out, 4) == [51, 50, 53, 52]


class TestAtomicsAndLimits:
    def test_atomic_cas_spin_hang_detection(self):
        module = module_with(
            "mov.u64 %rd1, cell;\n"
            "$L_spin:\n"
            "atom.global.cas.b32 %r1, [%rd1], 1, 2;\n"  # never succeeds: cell is 0
            "setp.ne.u32 %p1, %r1, 1;\n"
            "@%p1 bra $L_spin;\n"
            "ret;",
            extra=".global .align 4 .b8 cell[4];\n",
        )
        device = GpuDevice()
        with pytest.raises(StepLimitExceeded):
            device.launch(module, "k", grid=1, block=1, params={"out": 0},
                          max_steps=2_000)

    def test_atomic_exch_returns_old(self):
        values = run_store_per_thread(
            "ld.param.u64 %rd5, [out];\n"
            "atom.global.exch.b32 %r15, [%rd5], 7;\n",
            grid=1, block=1,
        )
        assert values == [0]


class TestLogging:
    def _instrumented(self, module, prune=True):
        return Instrumenter(prune=prune).instrument_module(module)[0]

    def test_native_run_emits_nothing(self):
        module = module_with(
            "ld.param.u64 %rd1, [out];\nmov.u32 %r1, 1;\nst.global.u32 [%rd1], %r1;\nret;"
        )
        device = GpuDevice()
        sink = ListSink()
        out = device.alloc(4)
        device.launch(module, "k", params={"out": out}, grid=1, block=4, sink=sink,
                      instrumented=False)
        assert sink.records == []

    def test_instrumented_run_emits_memory_records(self):
        module = self._instrumented(
            module_with(
                "ld.param.u64 %rd1, [out];\nmov.u32 %r1, 1;\n"
                "st.global.u32 [%rd1], %r1;\nld.global.u32 %r2, [%rd1];\nret;"
            ),
            prune=False,
        )
        device = GpuDevice()
        sink = ListSink()
        out = device.alloc(4)
        device.launch(module, "k", params={"out": out}, grid=1, block=4,
                      warp_size=4, sink=sink, instrumented=True)
        kinds = [r.kind for r in sink.records]
        assert RecordKind.STORE in kinds
        assert RecordKind.LOAD in kinds
        store = next(r for r in sink.records if r.kind is RecordKind.STORE)
        assert store.active == frozenset({0, 1, 2, 3})
        assert store.values[0] == 1

    def test_pruning_drops_redundant_same_address_load(self):
        source = module_with(
            "ld.param.u64 %rd1, [out];\nmov.u32 %r1, 1;\n"
            "st.global.u32 [%rd1], %r1;\nld.global.u32 %r2, [%rd1];\nret;"
        )
        device = GpuDevice()
        sink = ListSink()
        out = device.alloc(4)
        device.launch(self._instrumented(source, prune=True), "k",
                      params={"out": out}, grid=1, block=4, warp_size=4,
                      sink=sink, instrumented=True)
        kinds = [r.kind for r in sink.records]
        # The load re-reads the address the logged store covered: pruned.
        assert RecordKind.STORE in kinds
        assert RecordKind.LOAD not in kinds

    def test_branch_records_on_divergence(self):
        module = self._instrumented(
            module_with(
                "mov.u32 %r1, %tid.x;\n"
                "setp.lt.u32 %p1, %r1, 2;\n"
                "@!%p1 bra $L_e;\n"
                "mov.u32 %r2, 1;\n"
                "$L_e:\n"
                "ret;"
            )
        )
        device = GpuDevice()
        sink = ListSink()
        device.launch(module, "k", params={"out": 0}, grid=1, block=4,
                      warp_size=4, sink=sink, instrumented=True)
        kinds = [r.kind for r in sink.records]
        assert kinds.count(RecordKind.BRANCH_IF) == 1
        assert kinds.count(RecordKind.BRANCH_ELSE) == 1
        assert kinds.count(RecordKind.BRANCH_FI) == 1
        branch = next(r for r in sink.records if r.kind is RecordKind.BRANCH_IF)
        assert branch.then_mask == frozenset({0, 1})
        assert branch.active == frozenset({0, 1, 2, 3})

    def test_barrier_record_carries_arrived_set(self):
        module = self._instrumented(module_with("bar.sync 0;\nret;"))
        device = GpuDevice()
        sink = ListSink()
        device.launch(module, "k", params={"out": 0}, grid=1, block=4,
                      warp_size=2, sink=sink, instrumented=True)
        barriers = [r for r in sink.records if r.kind is RecordKind.BARRIER]
        assert len(barriers) == 1
        assert barriers[0].active == frozenset({0, 1, 2, 3})
