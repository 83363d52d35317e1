"""The warp-level shape algebra against its per-thread specification.

``repro.gpu.engine`` runs an arithmetic instruction once per warp over
UNIFORM / AFFINE / PER-LANE values (``repro.gpu.values``); the oracle
(``tests/oracle.py``: ``NaiveKernelExecution`` and its ``_ARITH``
handlers) runs it thread by thread over one ``dict`` per thread.  The
property below draws an opcode, a type, operand shapes chosen at and
across the wrap boundaries, a lane count and an active mask, executes
the one instruction on both, and requires every lane of the destination
— inactive lanes included — to come out equal in value *and* type.

The example budget is the hypothesis profile's (``tests/conftest.py``).
"""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cudac import compile_cuda
from repro.gpu import GpuDevice
from repro.gpu import device as device_module
from repro.gpu.engine import _ARITH_COMPILERS, _COMPARES, _int_range
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.interpreter import KernelExecution, _Phase, _path
from repro.gpu.values import Affine, column, merge, shape_of
from repro.ptx import parse_ptx

from oracle import _ARITH, NaiveKernelExecution, OracleEntry

HEADER = ".version 4.3\n.target sm_35\n.address_size 64\n"

#: Integers at and across the s32/u32/s64/u64 wrap boundaries.
EDGES = [
    0, 1, -1, 2, 5, 31, 32, 33, 64, 65, 255, 256, -128,
    2**31 - 1, 2**31, 2**31 + 1, -(2**31), -(2**31) - 1,
    2**32 - 1, 2**32, 2**32 + 1,
    2**63 - 1, 2**63, -(2**63), 2**64 - 1, 2**64,
]
INTS = st.one_of(st.sampled_from(EDGES), st.integers(-300, 300))
FLOATS = st.sampled_from(
    [0.0, -0.0, 1.5, -2.5, 3.0, 1e10, -7.75, float("inf"), float("nan")])
SCALARS = st.one_of(INTS, INTS, INTS, FLOATS)
STRIDES = st.sampled_from(
    [1, -1, 2, 4, -4, 31, 2**20, 2**27, -(2**27), 2**31 - 1, 2**58])
TYPES = ["s32", "u32", "b32", "s64", "u64", "b64", "s16", "u8", "f32", "pred",
         None]
#: The ``(mask, sign)`` of the integer types a modular AFFINE wraps to.
RINGS = st.sampled_from(
    [_int_range(name) for name in ("s32", "u32", "s64", "u64", "s16", "u8")])
SPECIALS = ["%tid.x", "%laneid", "%ntid.x", "%ctaid.x", "%warpid"]
SOURCES = {
    **dict.fromkeys(("mov", "not", "neg", "abs", "cvt", "cvta", "popc"), 1),
    **dict.fromkeys(("add", "sub", "mul", "div", "rem", "min", "max", "and",
                     "or", "xor", "setp", "shl", "shr"), 2),
    **dict.fromkeys(("mad", "fma", "selp"), 3),
}


def shapes(lanes: int):
    """A register's shaped value; ``None`` is a register never written."""
    options = [
        st.none(),
        SCALARS,
        SCALARS,
        st.lists(SCALARS, min_size=lanes, max_size=lanes),
        st.lists(INTS, min_size=lanes, max_size=lanes),
    ]
    if lanes > 1:  # a one-lane warp has no stride to speak of
        options += [st.builds(Affine, INTS, STRIDES)] * 2
        options.append(st.builds(Affine, INTS, STRIDES, RINGS))
    return st.one_of(options)


@st.composite
def warp_steps(draw):
    opcode = draw(st.sampled_from(sorted(_ARITH_COMPILERS)))
    modifiers = []
    if opcode in ("mul", "mad"):
        modifiers.append(draw(st.sampled_from(["lo", "lo", "hi"])))
    if opcode == "setp":
        modifiers.append(draw(st.sampled_from(sorted(_COMPARES))))
    type_name = draw(st.sampled_from(TYPES))
    if opcode == "cvt":
        concrete = [name for name in TYPES if name not in (None, "pred")]
        modifiers += [draw(st.sampled_from(concrete)),
                      draw(st.sampled_from(concrete))]
    elif type_name is not None:
        modifiers.append(type_name)
    lanes = draw(st.sampled_from([1, 5, 8, 16, 32]))
    registers = {
        name: draw(shapes(lanes)) for name in ("%a", "%b", "%c", "%d", "%p")
    }
    operands = []
    for name in ("%a", "%b", "%c")[:SOURCES[opcode]]:
        operands.append(draw(st.one_of(
            st.just(name), st.just(name), st.just(name),
            INTS.map(str), st.sampled_from(SPECIALS),
        )))
    # The destination may alias a source.
    dst = draw(st.sampled_from(["%d", "%d", "%a"]))
    guard = draw(st.sampled_from(["", "", "@%p ", "@!%p "]))
    if guard and draw(st.booleans()):
        # A 0/1 predicate column rather than whatever ``%p`` drew.
        registers["%p"] = draw(st.lists(
            st.integers(0, 1), min_size=lanes, max_size=lanes))
    active = draw(st.one_of(
        st.just(list(range(lanes))),
        st.lists(st.integers(0, lanes - 1), min_size=1, unique=True).map(sorted),
    ))
    text = f"{guard}{'.'.join([opcode] + modifiers)} {', '.join([dst] + operands)};"
    return text, lanes, registers, active, dst


def _execution(cls, module, lanes: int):
    device = GpuDevice()
    return cls(
        module=module, kernel=module.kernels[0],
        config=LaunchConfig.of(1, lanes, 32), params={},
        global_mem=device.global_mem, global_symbols=device.global_symbols,
    )


def _step(execution, active):
    """One step of warp 0 with ``active`` as its mask; returns the type
    of the exception the instruction raised, if it raised one."""
    warp = execution.warps[0]
    end = warp.frame.ctx.end_pc
    if isinstance(execution, NaiveKernelExecution):
        entry = OracleEntry(amask=set(active), pc=0, reconv_pc=end,
                            phase=_Phase.BASE)
    else:
        entry = _path(sum(1 << lane for lane in active), warp.lanes, 0, end,
                      _Phase.BASE)
    warp.frame.stack[:] = [entry]
    try:
        execution.step(warp)
    except Exception as exc:  # compared by type below
        return type(exc)
    return None


@given(warp_steps())
def test_warp_step_matches_the_per_thread_handler(case):
    text, lanes, registers, active, dst = case
    module = parse_ptx(
        HEADER + ".visible .entry k()\n{\n    " + text + "\n    ret;\n}\n")
    written = {k: v for k, v in registers.items() if v is not None}

    naive = _execution(NaiveKernelExecution, module, lanes)
    files = naive.warps[0].frame.regs
    for name, value in written.items():
        for tid, lane_value in zip(range(lanes), column(value, lanes)):
            files[tid][name] = lane_value
    expected_error = _step(naive, active)

    engine = _execution(KernelExecution, module, lanes)
    assert not hasattr(engine, "_specials")
    regs = engine.warps[0].frame.regs
    regs.update(copy.deepcopy(written))
    given_values = list(regs.values())
    error = _step(engine, active)

    assert error == expected_error, text
    if error is not None:
        return
    stored = regs.get(dst, 0)
    if type(stored) is list:
        assert len(stored) == lanes
    elif type(stored) is Affine:
        assert type(stored.base) is int and type(stored.stride) is int
        assert stored.stride != 0
        if stored.ring is not None and all(stored is not v for v in given_values):
            # A modular value the step made is canonical, and some lane
            # of it really wraps.
            mask, sign = stored.ring
            assert -sign <= stored.base <= mask - sign and 0 < stored.stride <= mask
            assert list(column(stored, lanes)) != list(
                column(Affine(stored.base, stored.stride), lanes)), text
    got = list(column(stored, lanes))
    expected = [files[tid].get(dst, 0) for tid in range(lanes)]
    # ``repr`` tells 1 from 1.0 from True, -0.0 from 0.0, and nan == nan.
    assert list(map(repr, got)) == list(map(repr, expected)), (text, stored)
    # A stored list is never mutated in place: every other register
    # still holds what it was given.
    for name, value in written.items():
        if name != dst:
            assert repr(regs[name]) == repr(value), (text, name)


def test_every_arithmetic_opcode_is_drawn():
    assert set(SOURCES) == set(_ARITH_COMPILERS) == set(_ARITH)


class TestShapes:
    def test_shape_of_picks_the_most_compact_shape(self):
        assert shape_of([7, 7, 7]) == 7
        affine = shape_of([5, 9, 13, 17])
        assert (affine.base, affine.stride) == (5, 4)
        assert shape_of([3]) == 3
        assert shape_of([0, 1, 3]) == [0, 1, 3]
        assert shape_of([1.0, 1.0]) == [1.0, 1.0]  # AFFINE/UNIFORM: ints only
        assert shape_of([1, True]) == [1, True]

    def test_column_materialises_every_shape(self):
        assert list(column(4, 3)) == [4, 4, 4]
        assert list(column(Affine(10, -2), 4)) == [10, 8, 6, 4]
        assert list(column(Affine(10, -2), 4, (1, 3))) == [8, 4]
        stored = [1, 2.5, 3]
        assert column(stored, 3) is stored
        assert column(stored, 3, (0, 2)) == [1, 3]
        assert column(9, 5, (0, 4)) == [9, 9]

    def test_merge_keeps_inactive_lanes_and_copies(self):
        old = [1, 2, 3, 4]
        assert merge(old, [8, 9], 4, (1, 3)) == [1, 8, 3, 9]
        assert old == [1, 2, 3, 4]
        assert merge(0, Affine(10, 5), 4, (0, 2)) == [10, 0, 20, 0]
        assert merge(Affine(0, 1), 7.5, 3, (1,)) == [0, 7.5, 2]


def _shape_after(text: str, lanes: int = 32, **registers):
    """The destination's stored shape after one full-mask step."""
    module = parse_ptx(
        HEADER + ".visible .entry k()\n{\n    " + text + "\n    ret;\n}\n")
    engine = _execution(KernelExecution, module, lanes)
    regs = engine.warps[0].frame.regs
    regs.update({"%" + name: value for name, value in registers.items()})
    assert _step(engine, range(lanes)) is None
    return regs["%d"]


def _lanes_after(text: str, lanes: int = 32, **registers):
    """The destination's lanes after the oracle runs one full-mask step."""
    module = parse_ptx(
        HEADER + ".visible .entry k()\n{\n    " + text + "\n    ret;\n}\n")
    naive = _execution(NaiveKernelExecution, module, lanes)
    files = naive.warps[0].frame.regs
    for name, value in registers.items():
        for tid, lane_value in enumerate(column(value, lanes)):
            files[tid]["%" + name] = lane_value
    assert _step(naive, range(lanes)) is None
    return [files[tid]["%d"] for tid in range(lanes)]


S32, U32, U16 = _int_range("s32"), _int_range("u32"), _int_range("u16")


def _affine(shape):
    assert type(shape) is Affine and shape.ring is None, shape
    return shape.base, shape.stride


def _modular(shape):
    assert type(shape) is Affine and shape.ring is not None, shape
    return shape.base, shape.stride, shape.ring


class TestClosedForm:
    """AFFINE survives exactly while no lane wraps (the end-lane rule),
    and modulo 2ⁿ once one does (the ring rule)."""

    def test_index_arithmetic_stays_affine(self):
        assert _affine(_shape_after("mov.u32 %d, %tid.x;")) == (0, 1)
        assert _affine(_shape_after("add.s32 %d, %a, %b;",
                                    a=Affine(0, 1), b=4096)) == (4096, 1)
        assert _affine(_shape_after("sub.s32 %d, %a, %b;",
                                    a=100, b=Affine(0, 3))) == (100, -3)
        assert _affine(_shape_after("mul.lo.s64 %d, %a, 4;",
                                    a=Affine(7, 1))) == (28, 4)
        assert _affine(_shape_after("mad.lo.s32 %d, %a, %b, %c;",
                                    a=Affine(0, 1), b=8, c=Affine(3, 1))) == (3, 9)
        assert _affine(_shape_after("shl.b32 %d, %a, 2;",
                                    a=Affine(1, 1))) == (4, 4)
        assert _affine(_shape_after("cvt.s64.s32 %d, %a;",
                                    a=Affine(-5, 1))) == (-5, 1)
        assert _affine(_shape_after("cvta.to.global.u64 %d, %a;",
                                    a=Affine(64, 4))) == (64, 4)

    def test_equal_strides_cancel_to_uniform(self):
        assert _shape_after("sub.s32 %d, %a, %b;",
                            a=Affine(9, 2), b=Affine(4, 2)) == 5

    def test_a_wrap_at_either_end_lane_goes_modular(self):
        near = 2**31 - 8
        assert _affine(_shape_after("add.s32 %d, %a, 0;", lanes=8,
                                    a=Affine(near, 1))) == (near, 1)
        crossed = _shape_after("add.s32 %d, %a, 0;", lanes=16, a=Affine(near, 1))
        assert _modular(crossed) == (near, 1, S32)
        assert list(column(crossed, 16)) == [
            near + i if i < 8 else near + i - 2**32 for i in range(16)]
        narrowed = _shape_after("mov.u16 %d, %a;", a=Affine(65530, 1))
        assert _modular(narrowed) == (65530, 1, U16)
        assert list(column(narrowed, 32)) == [
            65530 + i if i < 6 else i - 6 for i in range(32)]
        # The reader's wrap counts too: a negative lane read as u32 and
        # widened keeps 32 bits of a 64-bit result.
        assert type(_shape_after("cvt.u64.u32 %d, %a;", a=Affine(-1, 1))) is list

    def test_a_modular_value_stays_modular_in_its_ring(self):
        signed = Affine(2**31 - 8, 1, S32)  # wraps at lane 8
        unsigned = Affine(2**32 - 8, 2**27, U32)  # s32 wraps at lane 16
        for text, wrapped, ring in (
                ("add.s32 %d, %a, 5;", signed, S32),
                ("sub.u32 %d, 7, %a;", unsigned, U32),
                ("mul.lo.s32 %d, %a, 31;", signed, S32),
                ("mad.lo.s32 %d, %a, 3, 7;", signed, S32),
                ("shl.b32 %d, %a, 3;", signed, U32),
                ("mov.s32 %d, %a;", unsigned, S32),
                ("cvt.u16.s32 %d, %a;", signed, U16)):
            shape = _shape_after(text, a=wrapped)
            assert _modular(shape)[2] == ring, text
            assert list(column(shape, 32)) == _lanes_after(text, a=wrapped), text
        # A product of two AFFINE values is not affine in the lane.
        assert type(_shape_after("mad.lo.s32 %d, %a, %a, 3;", a=signed)) is list

    def test_neg_and_not_keep_affine(self):
        # -x and ~x = -1 - x are affine maps mod 2ⁿ, read raw.
        exact = Affine(5, 3)
        for text, form in (("neg.s32 %d, %a;", (-5, -3)),
                           ("not.s32 %d, %a;", (-6, -3)),
                           ("not.b32 %d, %a;", (2**32 - 6, -3)),
                           # every lane wraps, none crosses: exact again
                           ("neg.u32 %d, %a;", (2**32 - 5, -3)),
                           ("neg.s64 %d, %a;", (-5, -3))):
            shape = _shape_after(text, a=exact)
            assert _affine(shape) == form, text
            assert list(column(shape, 32)) == _lanes_after(text, a=exact), text
        wrapped = Affine(2**31 - 8, 1, S32)  # wraps at lane 8
        unsigned = Affine(2**32 - 8, 1, U32)  # wraps at lane 8
        for text, a, ring in (("neg.s32 %d, %a;", wrapped, S32),
                              ("not.s32 %d, %a;", wrapped, S32),
                              ("not.b32 %d, %a;", unsigned, U32),
                              ("neg.s16 %d, %a;", Affine(2**15 - 8, 1),
                               _int_range("s16"))):
            shape = _shape_after(text, a=a)
            assert _modular(shape)[2] == ring, text
            assert list(column(shape, 32)) == _lanes_after(text, a=a), text
        # Read as u32, the s32 wrap is no wrap at all.
        assert _affine(_shape_after("not.b32 %d, %a;", a=wrapped)) == (2**31 + 7, -1)
        # 32 wrapped bits say nothing about the upper half of 64.
        for text in ("neg.s64 %d, %a;", "not.b64 %d, %a;"):
            shape = _shape_after(text, a=wrapped)
            assert type(shape) is list, text
            assert shape == _lanes_after(text, a=wrapped), text

    def test_what_is_not_an_integer_affine_map_stays_per_lane(self):
        tid = Affine(0, 1)
        for text in ("not.pred %d, %a;", "neg.f32 %d, %a;",
                     "and.b32 %d, %a, 3;", "xor.b32 %d, %a, 5;"):
            shape = _shape_after(text, a=tid)
            assert type(shape) is list, text
            assert list(map(repr, shape)) == list(map(repr, _lanes_after(
                text, a=tid))), text

    def test_mad_reads_its_addend_raw(self):
        # Only the factors go through the type: a float addend joins the
        # product before the result's wrap rounds it toward zero.
        text = "mad.lo.s32 %d, %a, 1, 1.5;"
        shape = _shape_after(text, a=Affine(-16, 1))
        assert type(shape) is list
        assert shape == _lanes_after(text, a=Affine(-16, 1))
        assert shape[:2] == [-14, -13]

    def test_a_widening_cvt_of_a_modular_value_goes_per_lane(self):
        # 32 wrapped bits say nothing about the upper half of 64.
        wrapped = Affine(2**31 - 8, 1, S32)
        for text in ("cvt.s64.s32 %d, %a;", "cvt.u64.u32 %d, %a;",
                     "add.s64 %d, %a, 1;"):
            shape = _shape_after(text, a=wrapped)
            assert type(shape) is list, text
            assert shape == _lanes_after(text, a=wrapped), text

    def test_a_modular_result_whose_lanes_do_not_wrap_is_exact(self):
        assert _affine(_shape_after("add.s32 %d, %a, -100;", lanes=16,
                                    a=Affine(2**31 - 8, 1, S32))) == (2**31 - 108, 1)
        assert _affine(_shape_after("cvt.u8.s32 %d, %a;", lanes=16,
                                    a=Affine(-2**20, 3, S32))) == (0, 3)
        assert _shape_after("shl.b32 %d, %a, 16;",
                            a=Affine(5, 2**16, U32)) == 5 << 16

    def test_a_float_instruction_on_a_modular_value_goes_per_lane(self):
        for text in ("add.f32 %d, %a, 1;", "mul.f64 %d, %a, 2;",
                     "cvt.f32.s32 %d, %a;", "add.s32 %d, %a, 1.5;"):
            wrapped = Affine(2**31 - 8, 1, S32)
            shape = _shape_after(text, a=wrapped)
            assert type(shape) is list, text
            assert list(map(repr, shape)) == list(map(repr, _lanes_after(
                text, a=wrapped))), text

    def test_what_is_not_affine_in_the_lane_goes_per_lane(self):
        for text in ("mul.lo.s32 %d, %a, %a;", "shl.b32 %d, %b, %a;",
                     "mul.hi.s32 %d, %a, 3;", "min.s32 %d, %a, 3;",
                     "setp.lt.s32 %d, %a, 3;", "add.f32 %d, %a, 1;"):
            assert type(_shape_after(text, a=Affine(0, 1), b=1)) is list, text

    def test_setp_is_uniform_when_every_lane_agrees(self):
        tid = Affine(0, 1)
        assert _shape_after("setp.lt.s32 %d, %a, 32;", a=tid) == 1
        assert _shape_after("setp.ge.s32 %d, %a, 32;", a=tid) == 0
        assert _shape_after("setp.gt.u32 %d, 100, %a;", a=tid) == 1
        assert _shape_after("setp.le.s64 %d, %a, %b;",
                            a=tid, b=Affine(100, 2)) == 1
        assert _shape_after("setp.eq.s32 %d, %a, 40;", a=tid) == 0
        assert _shape_after("setp.ne.s32 %d, %a, -1;", a=tid) == 1
        for text, a in (
                ("setp.lt.s32 %d, %a, 31;", tid),  # the end lanes disagree
                ("setp.ne.s32 %d, %a, 5;", Affine(0, 2)),  # inside the range
                ("setp.lt.u32 %d, %a, 2;", Affine(-1, 1)),  # read as 2³²-1
                ("setp.lt.s32 %d, %a, 40;", Affine(2**31 - 8, 1, S32)),
                ("setp.lt.s32 %d, %a, 40.5;", tid)):
            shape = _shape_after(text, a=a)
            assert type(shape) is list, text
            assert shape == _lanes_after(text, a=a), text

    def test_uniform_operands_stay_uniform(self):
        assert _shape_after("setp.lt.s32 %d, %a, %b;", a=3, b=48) == 1
        assert _shape_after("mul.lo.s32 %d, %a, %b;", a=2**31 - 1, b=2) == -2
        assert _shape_after("selp.u32 %d, 7, 9, %a;", a=0) == 9
        assert _shape_after("ld.param.u32 %d, [n];") == 0

    def test_identity_moves_alias_the_stored_list(self):
        stored = [3, 1.5, 2]
        assert _shape_after("cvta.to.global.u64 %d, %a;", lanes=3,
                            a=stored) is stored
        assert _shape_after("mov.pred %d, %a;", lanes=3, a=stored) is stored


# The ``compute_bound`` and ``stream_scale`` kernels of the perf ledger
# (``benchmarks/ledger/workloads.py``), copied as source.
POLY = """
__global__ void poly(int* out, int c0, int c1, int iters) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int x = gid * c0 + c1;
    int acc = 0;
    for (int i = 0; i < iters; i = i + 1) {
        acc = acc * 31 + x;
        x = x * 5 + i;
    }
    out[gid] = acc;
}
"""

BOUNDED = """
__global__ void bounded(int* out, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        out[gid] = gid * 3;
    }
}
"""

VOTE = """
__global__ void vote(int* out) {
    int t = threadIdx.x;
    int b = __ballot_sync(0xffffffff, t & 1);
    out[blockIdx.x * blockDim.x + t] = b;
}
"""

SAXPY = """
__global__ void saxpy(int* a, int* b, int* dst, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[dst[gid]] = a[gid] * 3 + b[gid];
}
"""


def _final_register_files(source, buffers, scalars, grid=2, block=64):
    """Launch ``source``; returns its kernel, every warp with the
    register file it retired with, and each buffer's words after it."""
    executions = []

    class Kept(KernelExecution):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executions.append(self)

    module = compile_cuda(source)
    device = GpuDevice()
    params = dict(scalars)
    for name, values in buffers.items():
        params[name] = device.alloc(len(values) * 4)
        device.memcpy_to_device(params[name], values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device_module, "KernelExecution", Kept)
        device.launch(module, module.kernels[0].name, grid, block, params=params)
    (execution,) = executions
    assert not hasattr(execution, "_specials")  # no per-thread table
    assert len(execution.warps) == grid * block // 32
    words = {name: device.memcpy_from_device(params[name], len(values))
             for name, values in buffers.items()}
    return (module.kernels[0], [(w, w.frames[0].regs) for w in execution.warps],
            words)


def _operands(kernel, opcode):
    """The operand names of every ``opcode`` instruction, in order."""
    return [
        [str(operand) for operand in stmt.operands]
        for stmt in kernel.body if getattr(stmt, "full_opcode", "") == opcode
    ]


class TestShapeRetention:
    """The O(1) claim without a stopwatch: after whole kernels, the
    values a warp agrees on are still stored as one scalar or one
    ``(base, stride)`` — a change that quietly materialises everything
    fails here by shape."""

    def test_compute_bound_keeps_its_loop_uniform(self):
        threads, iters = 128, 6
        kernel, warps, words = _final_register_files(
            POLY, {"out": [0] * threads}, {"c0": 1237, "c1": 99, "iters": iters})
        ((flag, counter, _bound),) = _operands(kernel, "setp.lt.s32")
        ((_wide, gid),) = _operands(kernel, "cvt.s64.s32")
        ((address, _base, _offset),) = _operands(kernel, "add.s64")
        ((_target, acc),) = _operands(kernel, "st.global.u32")
        for warp, regs in warps:
            assert regs[counter] == iters and type(regs[counter]) is int
            assert regs[flag] == 0 and type(regs[flag]) is int
            assert _affine(regs[gid]) == (warp.first_tid, 1)
            assert _affine(regs[address])[1] == 4
            # x = x * 5 + i overflows s32 within the first iterations,
            # and the wrapped lanes still share one (base, stride).
            assert _modular(regs[acc])[2] == U32
            first = warp.first_tid
            assert list(column(regs[acc], 32)) == words["out"][first:first + 32]

    @pytest.mark.parametrize("spare", [0, 5])
    def test_a_bounds_check_keeps_its_predicate_uniform(self, spare):
        threads = 128
        kernel, warps, words = _final_register_files(
            BOUNDED, {"out": [0] * threads}, {"n": threads + spare})
        ((flag, _gid, _bound),) = _operands(kernel, "setp.lt.s32")
        for _warp, regs in warps:
            assert regs[flag] == 1 and type(regs[flag]) is int
        assert words["out"] == [3 * gid for gid in range(threads)]

    def test_a_whole_warp_vote_is_one_value(self):
        kernel, warps, words = _final_register_files(VOTE, {"out": [0] * 128}, {})
        ((ballot, _predicate, _membermask),) = _operands(kernel, "vote.sync.ballot.b32")
        for _warp, regs in warps:
            assert regs[ballot] == 0xAAAAAAAA and type(regs[ballot]) is int
        assert words["out"] == [0xAAAAAAAA] * 128

    def test_stream_scale_keeps_its_index_arithmetic_affine(self):
        threads = 128
        kernel, warps, _words = _final_register_files(SAXPY, {
            "a": list(range(threads)), "b": [5] * threads,
            "dst": list(reversed(range(threads))), "out": [0] * threads,
        }, {})
        gids = {gid for _wide, gid in _operands(kernel, "cvt.s64.s32")[:3]}
        (gid,) = gids
        addresses = [dst for dst, _base, _offset in _operands(kernel, "add.s64")]
        loaded = [dst for dst, _source in _operands(kernel, "ld.global.u32")]
        assert len(addresses) == 4 and len(loaded) == 3
        for warp, regs in warps:
            assert _affine(regs[gid]) == (warp.first_tid, 1)
            for address in addresses[:3]:  # a + 4*gid, b + 4*gid, dst + 4*gid
                assert _affine(regs[address])[1] == 4
            for name in loaded + addresses[3:]:  # data, and out + 4*dst[gid]
                assert type(regs[name]) is list and len(regs[name]) == 32
            uniform = [v for v in regs.values()
                       if type(v) is not list and type(v) is not Affine]
            assert len(uniform) >= 6  # four pointers, %ctaid.x, %ntid.x, ...
