"""Decode-time compilers for instruction value semantics.

:class:`repro.gpu.interpreter.KernelExecution` compiles every statement
once per launch into a closure; this module holds the part of that
compilation that is pure value semantics and needs no execution state
beyond operand access: the per-type wrap specializers, the arithmetic
``compute(regs, tid)`` compilers (one per opcode, ``_ARITH_COMPILERS``),
and the atomic read-modify-write table (``_ATOMIC_RMW``).

Adding an arithmetic instruction is one compiler here; its opcode then
appears in ``KernelExecution._DECODERS`` by construction.  The
per-thread handlers these compilers are held to bit-for-bit live with
the oracle interpreter in ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import SimulationError
from ..ptx.ast import (
    ImmOperand,
    Instruction,
    RegOperand,
    SpecialRegOperand,
    SymbolOperand,
)
from ..ptx.isa import FLOAT_TYPES, SIGNED_TYPES, type_width


def _make_wrap(type_name: Optional[str]) -> Callable:
    """``wrap(value)``: a raw Python value wrapped to a PTX scalar type's
    range.

    The type dispatch, bit mask and sign threshold are resolved once at
    decode time instead of per value.
    """
    if type_name is None or type_name == "pred":
        return lambda value: value
    if type_name in FLOAT_TYPES:
        return float
    width = type_width(type_name) * 8
    mask = (1 << width) - 1
    if type_name in SIGNED_TYPES:
        sign = 1 << (width - 1)
        span = 1 << width

        def wrap_signed(value):
            value = int(value) & mask
            return value - span if value >= sign else value

        return wrap_signed

    def wrap_unsigned(value):
        return int(value) & mask

    return wrap_unsigned


def _wrap_plan(type_name: Optional[str]) -> Tuple:
    """The wrap of ``type_name`` as data, for decode-time inlining.

    Returns ``("ident",)``, ``("float",)``, ``("signed", mask, sign,
    span)`` or ``("unsigned", mask)`` — the hot compilers below use this
    to open-code the wrap arithmetic inside their compute closures
    instead of paying a Python-level wrap call per operand.
    """
    if type_name is None or type_name == "pred":
        return ("ident",)
    if type_name in FLOAT_TYPES:
        return ("float",)
    width = type_width(type_name) * 8
    mask = (1 << width) - 1
    if type_name in SIGNED_TYPES:
        return ("signed", mask, 1 << (width - 1), 1 << width)
    return ("unsigned", mask)


_COMPARES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_CVT_TYPES = frozenset(
    {"u8", "u16", "u32", "u64", "s8", "s16", "s32", "s64", "f32", "f64",
     "b8", "b16", "b32", "b64"}
)


# ----------------------------------------------------------------------
# Arithmetic compute compilers
#
# Each returns ``compute(regs, tid)`` producing the value assigned to
# the destination register — bit-for-bit the value the corresponding
# per-thread handler of the oracle (``tests/oracle.py``, ``_ARITH``)
# would have written.
#
# The hot compilers constant-fold: operands whose value is fixed at
# decode time (immediates, symbol addresses) are pre-wrapped once, and
# register operands inline ``regs.get`` directly into the compute
# closure instead of going through a per-operand getter call.  The wrap
# is pure and idempotent, so pre-wrapping at decode time is
# bit-identical to wrapping at execute time.
# ----------------------------------------------------------------------
def _operand_plan(exe, operand, wrap):
    """Classify an operand for decode-time specialization.

    Returns ``("const", wrapped_value)`` for operands fixed at decode
    time, ``("reg", name)`` for plain registers, or ``("fn", get)`` with
    a ``get(regs, tid)`` accessor for special registers.
    """
    if isinstance(operand, ImmOperand):
        return ("const", wrap(operand.value))
    if isinstance(operand, SymbolOperand):
        return ("const", wrap(exe._symbol_address(operand.name)))
    if isinstance(operand, RegOperand):
        return ("reg", operand.name)
    if isinstance(operand, SpecialRegOperand):
        specials = exe._specials
        key = (operand.name, operand.dim)
        return ("fn", lambda regs, tid: specials[tid][key])
    raise SimulationError(f"cannot evaluate operand {operand!r}")


def _plan_getter(kind, payload):
    """Fall back from an operand plan to a generic ``get(regs, tid)``."""
    if kind == "const":
        value = payload
        return lambda regs, tid: value
    if kind == "reg":
        name = payload
        return lambda regs, tid: regs.get(name, 0)
    return payload


def _wrapped_getter(exe, operand, wrap, plan=None):
    """A single-call ``get(regs, tid)`` returning the *wrapped* value.

    Fuses the operand access and the type wrap into one closure call
    (constants are wrapped once at decode time; for plain registers the
    wrap arithmetic is open-coded into the closure).
    """
    kind, payload = _operand_plan(exe, operand, wrap)
    if kind == "const":
        value = payload
        return lambda regs, tid: value
    if kind == "reg":
        name = payload
        if plan is not None:
            wkind = plan[0]
            if wkind == "signed":
                _w, mask, sign, span = plan

                def get_signed(regs, tid):
                    value = int(regs.get(name, 0)) & mask
                    return value - span if value >= sign else value

                return get_signed
            if wkind == "unsigned":
                mask = plan[1]
                return lambda regs, tid: int(regs.get(name, 0)) & mask
            if wkind == "float":
                return lambda regs, tid: float(regs.get(name, 0))
            return lambda regs, tid: regs.get(name, 0)
        return lambda regs, tid: wrap(regs.get(name, 0))
    get = payload
    return lambda regs, tid: wrap(get(regs, tid))


def _raw_getter(exe, operand):
    """A ``get(regs, tid)`` returning the operand value unwrapped."""
    return _plan_getter(*_operand_plan(exe, operand, lambda value: value))


def _compile_binop(fn):
    def compiler(exe, insn: Instruction):
        _dst, a, b = insn.operands
        type_name = insn.value_type()
        wrap = _make_wrap(type_name)
        plan = _wrap_plan(type_name)
        ka, va = _operand_plan(exe, a, wrap)
        kb, vb = _operand_plan(exe, b, wrap)
        if ka == "const" and kb == "const":
            value = wrap(fn(va, vb))
            return lambda regs, tid: value
        wkind = plan[0]
        if wkind == "signed" and ka != "fn" and kb != "fn":
            # Fully open-coded: operand fetch, both input wraps, the
            # result wrap — one closure call, zero nested Python calls
            # beyond ``fn``.
            _w, mask, sign, span = plan
            if ka == "reg" and kb == "reg":
                an, bn = va, vb

                def compute_ss(regs, tid):
                    lhs = int(regs.get(an, 0)) & mask
                    if lhs >= sign:
                        lhs -= span
                    rhs = int(regs.get(bn, 0)) & mask
                    if rhs >= sign:
                        rhs -= span
                    value = int(fn(lhs, rhs)) & mask
                    return value - span if value >= sign else value

                return compute_ss
            if ka == "reg":
                an = va

                def compute_sc(regs, tid):
                    lhs = int(regs.get(an, 0)) & mask
                    if lhs >= sign:
                        lhs -= span
                    value = int(fn(lhs, vb)) & mask
                    return value - span if value >= sign else value

                return compute_sc
            bn = vb

            def compute_cs(regs, tid):
                rhs = int(regs.get(bn, 0)) & mask
                if rhs >= sign:
                    rhs -= span
                value = int(fn(va, rhs)) & mask
                return value - span if value >= sign else value

            return compute_cs
        if wkind == "unsigned" and ka != "fn" and kb != "fn":
            mask = plan[1]
            if ka == "reg" and kb == "reg":
                an, bn = va, vb
                return lambda regs, tid: (
                    int(fn(int(regs.get(an, 0)) & mask, int(regs.get(bn, 0)) & mask))
                    & mask
                )
            if ka == "reg":
                an = va
                return lambda regs, tid: (
                    int(fn(int(regs.get(an, 0)) & mask, vb)) & mask
                )
            bn = vb
            return lambda regs, tid: (
                int(fn(va, int(regs.get(bn, 0)) & mask)) & mask
            )
        if ka == "reg" and kb == "reg":
            an, bn = va, vb
            return lambda regs, tid: wrap(
                fn(wrap(regs.get(an, 0)), wrap(regs.get(bn, 0)))
            )
        if ka == "reg" and kb == "const":
            an = va
            return lambda regs, tid: wrap(fn(wrap(regs.get(an, 0)), vb))
        if ka == "const" and kb == "reg":
            bn = vb
            return lambda regs, tid: wrap(fn(va, wrap(regs.get(bn, 0))))
        get_a = _plan_getter(ka, va)
        get_b = _plan_getter(kb, vb)

        def compute(regs, tid):
            return wrap(fn(wrap(get_a(regs, tid)), wrap(get_b(regs, tid))))

        return compute

    return compiler


def _compile_mov(exe, insn):
    _dst, src = insn.operands
    type_name = insn.value_type()
    return _wrapped_getter(exe, src, _make_wrap(type_name), _wrap_plan(type_name))


def _compile_not(exe, insn):
    _dst, src = insn.operands
    type_name = insn.value_type()
    get = exe._compile_value(src)
    if type_name == "pred":
        # not.pred is logical negation, not bitwise complement.
        return lambda regs, tid: 0 if get(regs, tid) else 1
    wrap = _make_wrap(type_name)
    return lambda regs, tid: wrap(~int(get(regs, tid)))


def _compile_neg(exe, insn):
    _dst, src = insn.operands
    wrap = _make_wrap(insn.value_type())
    get = exe._compile_value(src)
    return lambda regs, tid: wrap(-get(regs, tid))


def _compile_abs(exe, insn):
    _dst, src = insn.operands
    wrap = _make_wrap(insn.value_type())
    get = exe._compile_value(src)
    return lambda regs, tid: wrap(abs(get(regs, tid)))


def _compile_cvt(exe, insn):
    # cvt.<dst_type>.<src_type> — wrap through the source type first.
    _dst, src = insn.operands
    types = [m for m in insn.modifiers if m in _CVT_TYPES]
    if len(types) == 2:
        dplan = _wrap_plan(types[0])
        splan = _wrap_plan(types[1])
        if (
            isinstance(src, RegOperand)
            and dplan[0] in ("signed", "unsigned")
            and splan[0] in ("signed", "unsigned")
        ):
            # Integer-to-integer conversion of a register: open-code
            # both wraps (the hottest cvt shape — index widening).
            name = src.name
            if splan[0] == "unsigned":
                smask = splan[1]
                if dplan[0] == "unsigned":
                    mask = smask & dplan[1]
                    return lambda regs, tid: int(regs.get(name, 0)) & mask
                _w, dmask, dsign, dspan = dplan

                def cvt_us(regs, tid):
                    value = (int(regs.get(name, 0)) & smask) & dmask
                    return value - dspan if value >= dsign else value

                return cvt_us
            _w, smask, ssign, sspan = splan
            if dplan[0] == "unsigned":
                dmask = dplan[1]

                def cvt_su(regs, tid):
                    value = int(regs.get(name, 0)) & smask
                    if value >= ssign:
                        value -= sspan
                    return value & dmask

                return cvt_su
            _w2, dmask, dsign, dspan = dplan

            def cvt_ss(regs, tid):
                value = int(regs.get(name, 0)) & smask
                if value >= ssign:
                    value -= sspan
                value &= dmask
                return value - dspan if value >= dsign else value

            return cvt_ss
        wrap_dst = _make_wrap(types[0])
        wrap_src = _make_wrap(types[1])
        get = exe._compile_value(src)
        return lambda regs, tid: wrap_dst(wrap_src(get(regs, tid)))
    type_name = insn.value_type()
    return _wrapped_getter(exe, src, _make_wrap(type_name), _wrap_plan(type_name))


def _compile_cvta(exe, insn):
    # Address-space conversion is a no-op in our flat address model.
    _dst, src = insn.operands
    get = exe._compile_value(src)
    return lambda regs, tid: get(regs, tid)


def _mul_shift(insn) -> int:
    type_name = insn.value_type()
    if insn.has_modifier("hi") and type_name and type_name not in FLOAT_TYPES:
        return type_width(type_name) * 8
    return 0


#: ``mul.lo`` (and float ``mul``) is just the ``*`` binop: reuse the
#: open-coded reg/const specializations instead of a wrap-call chain.
_MUL_LOW = _compile_binop(lambda a, b: a * b)


def _compile_mul(exe, insn):
    shift = _mul_shift(insn)
    if not shift:
        return _MUL_LOW(exe, insn)
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    return lambda regs, tid: wrap(
        int(get_a(regs, tid) * get_b(regs, tid)) >> shift
    )


def _compile_mad(exe, insn):
    _dst, a, b, c = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    get_c = _raw_getter(exe, c)
    shift = _mul_shift(insn)
    if shift:

        def compute_hi(regs, tid):
            product = int(get_a(regs, tid) * get_b(regs, tid)) >> shift
            return wrap(product + get_c(regs, tid))

        return compute_hi

    def compute(regs, tid):
        return wrap(get_a(regs, tid) * get_b(regs, tid) + get_c(regs, tid))

    return compute


def _compile_fma(exe, insn):
    _dst, a, b, c = insn.operands
    wrap = _make_wrap(insn.value_type())
    get_a = _raw_getter(exe, a)
    get_b = _raw_getter(exe, b)
    get_c = _raw_getter(exe, c)
    return lambda regs, tid: wrap(
        get_a(regs, tid) * get_b(regs, tid) + get_c(regs, tid)
    )


def _compile_div(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    if type_name in FLOAT_TYPES:

        def compute_float(regs, tid):
            lhs = get_a(regs, tid)
            rhs = get_b(regs, tid)
            return wrap(lhs / rhs if rhs else float("inf"))

        return compute_float

    def compute(regs, tid):
        lhs = get_a(regs, tid)
        rhs = get_b(regs, tid)
        if not rhs:
            return wrap(0)  # modeled: integer division by zero yields 0
        return wrap(int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs)

    return compute


def _compile_rem(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)

    def compute(regs, tid):
        lhs = int(get_a(regs, tid))
        rhs = int(get_b(regs, tid))
        if not rhs:
            return wrap(0)
        quotient = int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
        return wrap(lhs - rhs * quotient)

    return compute


def _compile_setp(exe, insn):
    _dst, a, b = insn.operands
    compare = _COMPARES[next(m for m in insn.modifiers if m in _COMPARES)]
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    ka, va = _operand_plan(exe, a, wrap)
    kb, vb = _operand_plan(exe, b, wrap)
    wkind = plan[0]
    if wkind == "signed" and ka != "fn" and kb != "fn":
        _w, mask, sign, span = plan
        if ka == "reg" and kb == "reg":
            an, bn = va, vb

            def compute_ss(regs, tid):
                lhs = int(regs.get(an, 0)) & mask
                if lhs >= sign:
                    lhs -= span
                rhs = int(regs.get(bn, 0)) & mask
                if rhs >= sign:
                    rhs -= span
                return 1 if compare(lhs, rhs) else 0

            return compute_ss
        if ka == "reg":
            an = va

            def compute_sc(regs, tid):
                lhs = int(regs.get(an, 0)) & mask
                if lhs >= sign:
                    lhs -= span
                return 1 if compare(lhs, vb) else 0

            return compute_sc
        if kb == "reg":
            bn = vb

            def compute_cs(regs, tid):
                rhs = int(regs.get(bn, 0)) & mask
                if rhs >= sign:
                    rhs -= span
                return 1 if compare(va, rhs) else 0

            return compute_cs
        value = 1 if compare(va, vb) else 0
        return lambda regs, tid: value
    if wkind == "unsigned" and ka != "fn" and kb != "fn":
        mask = plan[1]
        if ka == "reg" and kb == "reg":
            an, bn = va, vb
            return lambda regs, tid: (
                1
                if compare(int(regs.get(an, 0)) & mask, int(regs.get(bn, 0)) & mask)
                else 0
            )
        if ka == "reg":
            an = va
            return lambda regs, tid: (
                1 if compare(int(regs.get(an, 0)) & mask, vb) else 0
            )
        if kb == "reg":
            bn = vb
            return lambda regs, tid: (
                1 if compare(va, int(regs.get(bn, 0)) & mask) else 0
            )
        value = 1 if compare(va, vb) else 0
        return lambda regs, tid: value
    if ka == "reg" and kb == "reg":
        an, bn = va, vb
        return lambda regs, tid: (
            1 if compare(wrap(regs.get(an, 0)), wrap(regs.get(bn, 0))) else 0
        )
    if ka == "reg" and kb == "const":
        an = va
        return lambda regs, tid: 1 if compare(wrap(regs.get(an, 0)), vb) else 0
    if ka == "const" and kb == "reg":
        bn = vb
        return lambda regs, tid: 1 if compare(va, wrap(regs.get(bn, 0))) else 0
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    return lambda regs, tid: (
        1 if compare(get_a(regs, tid), get_b(regs, tid)) else 0
    )


def _compile_selp(exe, insn):
    _dst, a, b, pred = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    get_p = _raw_getter(exe, pred)
    return lambda regs, tid: (
        get_a(regs, tid) if get_p(regs, tid) else get_b(regs, tid)
    )


def _compile_shl(exe, insn):
    _dst, a, b = insn.operands
    wrap = _make_wrap(insn.value_type())
    get_a = _raw_getter(exe, a)
    kb, vb = _operand_plan(exe, b, lambda value: value)
    if kb == "const":
        shift = int(vb)
        return lambda regs, tid: wrap(int(get_a(regs, tid)) << shift)
    get_b = _plan_getter(kb, vb)
    return lambda regs, tid: wrap(
        int(get_a(regs, tid)) << int(get_b(regs, tid))
    )


def _compile_shr(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    get_a = _wrapped_getter(exe, a, wrap, _wrap_plan(type_name))
    kb, vb = _operand_plan(exe, b, lambda value: value)
    if kb == "const":
        shift = int(vb)
        return lambda regs, tid: wrap(int(get_a(regs, tid)) >> shift)
    get_b = _plan_getter(kb, vb)
    return lambda regs, tid: wrap(
        int(get_a(regs, tid)) >> int(get_b(regs, tid))
    )


def _compile_popc(exe, insn):
    _dst, src = insn.operands
    get = exe._compile_value(src)
    mask64 = (1 << 64) - 1
    return lambda regs, tid: bin(int(get(regs, tid)) & mask64).count("1")


_ARITH_COMPILERS: Dict[str, Callable] = {
    "mov": _compile_mov,
    "add": _compile_binop(lambda a, b: a + b),
    "sub": _compile_binop(lambda a, b: a - b),
    "mul": _compile_mul,
    "mad": _compile_mad,
    "fma": _compile_fma,
    "div": _compile_div,
    "rem": _compile_rem,
    "min": _compile_binop(min),
    "max": _compile_binop(max),
    "and": _compile_binop(lambda a, b: int(a) & int(b)),
    "or": _compile_binop(lambda a, b: int(a) | int(b)),
    "xor": _compile_binop(lambda a, b: int(a) ^ int(b)),
    "not": _compile_not,
    "neg": _compile_neg,
    "abs": _compile_abs,
    "cvt": _compile_cvt,
    "cvta": _compile_cvta,
    "setp": _compile_setp,
    "selp": _compile_selp,
    "shl": _compile_shl,
    "shr": _compile_shr,
    "popc": _compile_popc,
}


# ``op(umask) -> rmw(old_unsigned, values) -> new | None`` — mirrors the
# ``rmw`` closure in the oracle's ``_exec_atomic`` case for case.
_ATOMIC_RMW: Dict[str, Callable] = {
    "add": lambda umask: lambda old, vals: (old + vals[0]) & umask,
    "sub": lambda umask: lambda old, vals: (old - vals[0]) & umask,
    "exch": lambda umask: lambda old, vals: vals[0] & umask,
    "cas": lambda umask: lambda old, vals: (
        (vals[1] & umask) if old == (vals[0] & umask) else None
    ),
    "min": lambda umask: lambda old, vals: min(old, vals[0] & umask),
    "max": lambda umask: lambda old, vals: max(old, vals[0] & umask),
    "and": lambda umask: lambda old, vals: old & vals[0],
    "or": lambda umask: lambda old, vals: old | vals[0],
    "xor": lambda umask: lambda old, vals: old ^ vals[0],
    "inc": lambda umask: lambda old, vals: (
        0 if old >= (vals[0] & umask) else old + 1
    ),
    "dec": lambda umask: lambda old, vals: (
        (vals[0] & umask) if old == 0 or old > (vals[0] & umask) else old - 1
    ),
}
