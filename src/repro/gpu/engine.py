"""Decode-time compilers for instruction value semantics.

:class:`repro.gpu.interpreter.KernelExecution` compiles every statement
once per launch into a closure; this module holds the part of that
compilation that is pure value semantics and needs no execution state
beyond operand access: the per-type wrap specializers, the arithmetic
compilers (one per opcode, ``_ARITH_COMPILERS``), and the atomic
read-modify-write table (``_ATOMIC_RMW``).

An arithmetic instruction compiles to one ``compute(regs, warp, lanes)``
**per warp step**, over the shaped values of :mod:`repro.gpu.values`.
Each compiler states the instruction's per-lane semantics once, as a
scalar function of the raw operand values, and :func:`_lift` runs it at
the cheapest shape the operands allow:

* every operand UNIFORM — one scalar call for the whole warp;
* AFFINE operands under an affine-preserving opcode (``mov``, ``add``,
  ``sub``, ``mul.lo``, ``mad.lo``, ``shl``, integer ``cvt``, ``neg``
  and ``not``) — the
  closed form: exact while no lane wraps, modular (an AFFINE with a
  ``ring``) once one does, as long as the opcode is a ring map mod 2ⁿ
  of the n-bit result (:func:`_closed`);
* AFFINE operands of an integer ``setp`` whose lanes all give one
  answer — that answer (:func:`_compare_closed`);
* otherwise — one ``map`` over the active lanes.

The step is built for the instruction's operand count, and reads its
operands by name: no warp step builds a list of operand values.

Adding an arithmetic instruction is one compiler here; its opcode then
appears in ``KernelExecution._DECODERS`` by construction.  The
per-thread handlers these compilers are held to bit-for-bit live with
the oracle interpreter in ``tests/oracle.py``.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..ptx.ast import Instruction
from ..ptx.isa import FLOAT_TYPES, SIGNED_TYPES, type_width
from .values import Affine, column


def _identity(value):
    return value


# The type helpers are pure functions of a few type names, and a launch
# decodes every typed instruction through them: one shared wrap per type
# instead of new closures for the collector at every launch.
@lru_cache(maxsize=None)
def _int_range(type_name: Optional[str]) -> Optional[Tuple[int, int]]:
    """``(mask, sign)`` of an integer type — ``sign`` is 0 when it is
    unsigned — and ``None`` for float, predicate and untyped values."""
    if type_name is None or type_name == "pred" or type_name in FLOAT_TYPES:
        return None
    width = type_width(type_name) * 8
    signed = type_name in SIGNED_TYPES
    return (1 << width) - 1, (1 << (width - 1)) if signed else 0


@lru_cache(maxsize=None)
def _make_wrap(type_name: Optional[str]) -> Callable:
    """``wrap(value)``: a raw Python value wrapped to a PTX scalar type's
    range.

    The type dispatch, bit mask and sign threshold are resolved once at
    decode time instead of per value.
    """
    ints = _int_range(type_name)
    if ints is None:
        return float if type_name in FLOAT_TYPES else _identity
    mask, sign = ints
    if sign:
        span = mask + 1

        def wrap_signed(value):
            value = int(value) & mask
            return value - span if value >= sign else value

        return wrap_signed

    def wrap_unsigned(value):
        return int(value) & mask

    return wrap_unsigned


@lru_cache(maxsize=None)
def _int_wrap(mask: int, sign: int) -> Callable:
    """:func:`_make_wrap` of an integer type for integers only: the same
    value on an ``int``, ``TypeError`` on a ``float``."""
    if sign:
        return lambda value: ((value + sign) & mask) - sign
    return lambda value: value & mask


_COMPARES = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

_CVT_TYPES = frozenset(
    {"u8", "u16", "u32", "u64", "s8", "s16", "s32", "s64", "f32", "f64",
     "b8", "b16", "b32", "b64"}
)

_U32 = 0xFFFFFFFF


# ----------------------------------------------------------------------
# From one lane's semantics to a warp step
# ----------------------------------------------------------------------
def _lift(
    getters: Sequence[Callable],
    general: Callable,
    fast: Optional[Callable] = None,
    closed: Optional[Callable] = None,
) -> Callable:
    """``compute(regs, warp, lanes)`` from per-lane scalar semantics,
    built for the instruction's one, two or three operands.

    ``general(*operand_values)`` is the instruction on one lane, wraps
    included — bit-for-bit the value the oracle's per-thread handler
    writes.  ``fast`` is the same function for integer operands only: it
    must raise ``TypeError`` on anything else, and the column is then
    redone with ``general``.  ``closed`` is the :func:`_closed` form of
    the same arity.

    The result is a UNIFORM or AFFINE value of the whole warp, or a list
    with one entry per *active* lane (every lane when ``lanes`` is None).
    """
    if len(getters) == 1:
        (get_a,) = getters

        def compute(regs, warp, lanes):
            a = get_a(regs, warp)
            kind = type(a)
            if kind is not list:
                if kind is not Affine:
                    return general(a)
                if closed is not None:
                    form = closed(a, warp.lanes)
                    if form is not None:
                        return form
            return _per_lane(general, fast, column(a, warp.lanes, lanes))

        return compute

    if len(getters) == 2:
        get_a, get_b = getters

        def compute(regs, warp, lanes):
            a = get_a(regs, warp)
            b = get_b(regs, warp)
            kind_a, kind_b = type(a), type(b)
            if kind_a is not list and kind_b is not list:
                if kind_a is not Affine and kind_b is not Affine:
                    return general(a, b)
                if closed is not None:
                    form = closed(a, b, warp.lanes)
                    if form is not None:
                        return form
            count = warp.lanes
            return _per_lane(general, fast, column(a, count, lanes),
                             column(b, count, lanes))

        return compute

    get_a, get_b, get_c = getters

    def compute(regs, warp, lanes):
        a = get_a(regs, warp)
        b = get_b(regs, warp)
        c = get_c(regs, warp)
        kind_a, kind_b, kind_c = type(a), type(b), type(c)
        if kind_a is not list and kind_b is not list and kind_c is not list:
            if kind_a is not Affine and kind_b is not Affine and kind_c is not Affine:
                return general(a, b, c)
            if closed is not None:
                form = closed(a, b, c, warp.lanes)
                if form is not None:
                    return form
        count = warp.lanes
        return _per_lane(general, fast, column(a, count, lanes),
                         column(b, count, lanes), column(c, count, lanes))

    return compute


def _per_lane(general: Callable, fast: Optional[Callable], *columns) -> list:
    """One ``map`` over the operands' columns: ``fast`` when every
    operand is an integer, else ``general``."""
    if fast is not None:
        try:
            return list(map(fast, *columns))
        except TypeError:
            pass  # a float in an integer instruction
    return list(map(general, *columns))


@lru_cache(maxsize=None)
def _readers(read_types: Tuple[Optional[str], ...], write_type: str):
    """What :func:`_closed` knows of its types, once per combination:
    the reader's wrap of each operand, and the result's ``(mask, sign)``
    when the ring rule may apply — ``None`` when a narrower reader (the
    source of a widening ``cvt``) keeps fewer bits than the result."""
    ring = _int_range(write_type)
    if not all(reader is None or reader[0] >= ring[0]
               for reader in map(_int_range, read_types)):
        ring = None
    return tuple(map(_make_wrap, read_types)), ring


def _closed(
    fn: Callable,
    read_types: Tuple[Optional[str], ...],
    write_type: str,
    linear: Optional[Callable] = None,
) -> Callable:
    """``closed(a[, b[, c]], count)``, one operand per read type: the
    AFFINE (or UNIFORM) result of an opcode whose unwrapped ``fn`` is an
    integer ring map, affine in its operands, or ``None`` when the lanes
    have to be computed one by one.  At least one operand is AFFINE and
    none is a list.

    ``read_types`` are the types the operands are read through (``None``
    reads one raw) and ``write_type`` the integer type of the result.
    ``linear(*operands)`` vetoes operand shapes under which ``fn`` is not
    affine in the lane (a product of two AFFINE values, a shift by one).

    Two rules, the exact one first:

    * **end lanes** — no operand modular, and the reader's wrap of each
      input and the writer's wrap of the result the identity at lane 0
      and at the last lane: in-range is an interval and the form is
      monotone in the lane, so the two end lanes decide for all of them;
    * **ring** — mod 2ⁿ, for an n-bit result, ``fn`` sees only its
      operands mod 2ⁿ, so lanes that wrapped still agree on one
      ``(base, stride)`` when every modular operand's ring and every
      reader's wrap is the identity or at least n bits wide, and every
      UNIFORM operand is an ``int``.  The result is modular only when
      some lane really wraps.

    Each operand is read where the rule needs it, in operand order, and
    a rule stops at the first operand that fails it.
    """
    read_wraps, ring = _readers(read_types, write_type)
    wrap = _int_wrap(*_int_range(write_type))
    mask = ring[0] if ring is not None else 0

    def exact(low, high, last):
        """The end-lane rule's result from ``fn`` at the end lanes."""
        if (
            type(low) is int
            and type(high) is int
            and wrap(low) == low
            and wrap(high) == high
        ):
            stride = (high - low) // last
            return Affine(low, stride) if stride else low
        return None

    def modular(low, high, last):
        """The ring rule's result from ``fn`` at lanes 0 and 1."""
        low, high = wrap(low), wrap(high)
        if low == high:
            return low
        stride = high - low
        end = low + stride * last
        if wrap(end) == end:
            return Affine(low, stride)
        return Affine(low, stride & mask, ring)

    if len(read_wraps) == 1:
        (read_a,) = read_wraps

        def closed(a, count):
            last = count - 1
            a_low = a.base
            if a.ring is None:
                a_high = a_low + a.stride * last
                if read_a(a_low) == a_low and read_a(a_high) == a_high:
                    form = exact(fn(a_low), fn(a_high), last)
                    if form is not None:
                        return form
            if ring is None or (a.ring is not None and a.ring[0] < mask):
                return None
            return modular(fn(a_low), fn(a_low + a.stride), last)

        return closed

    if len(read_wraps) == 2:
        read_a, read_b = read_wraps

        def closed(a, b, count):
            if linear is not None and not linear(a, b):
                return None
            last = count - 1
            # The end-lane rule.
            if type(a) is Affine:
                a_low = a.base
                a_high = a_low + a.stride * last
                fits = (a.ring is None and read_a(a_low) == a_low
                        and read_a(a_high) == a_high)
            else:
                a_low = a_high = read_a(a)
                fits = True
            if fits:
                if type(b) is Affine:
                    b_low = b.base
                    b_high = b_low + b.stride * last
                    fits = (b.ring is None and read_b(b_low) == b_low
                            and read_b(b_high) == b_high)
                else:
                    b_low = b_high = read_b(b)
                if fits:
                    form = exact(fn(a_low, b_low), fn(a_high, b_high), last)
                    if form is not None:
                        return form
            if ring is None:
                return None
            # The ring rule, at lanes 0 and 1.
            kind = type(a)
            if kind is Affine:
                if a.ring is not None and a.ring[0] < mask:
                    return None
                a_low = a.base
                a_high = a_low + a.stride
            elif kind is int:
                a_low = a_high = read_a(a)
            else:
                return None
            kind = type(b)
            if kind is Affine:
                if b.ring is not None and b.ring[0] < mask:
                    return None
                b_low = b.base
                b_high = b_low + b.stride
            elif kind is int:
                b_low = b_high = read_b(b)
            else:
                return None
            return modular(fn(a_low, b_low), fn(a_high, b_high), last)

        return closed

    read_a, read_b, read_c = read_wraps

    def closed(a, b, c, count):
        if linear is not None and not linear(a, b, c):
            return None
        last = count - 1
        a_ends = _end_lanes(a, read_a, last)
        b_ends = a_ends and _end_lanes(b, read_b, last)
        c_ends = b_ends and _end_lanes(c, read_c, last)
        if c_ends:
            form = exact(fn(a_ends[0], b_ends[0], c_ends[0]),
                         fn(a_ends[1], b_ends[1], c_ends[1]), last)
            if form is not None:
                return form
        if ring is None:
            return None
        a_lanes = _first_lanes(a, read_a, mask)
        b_lanes = a_lanes and _first_lanes(b, read_b, mask)
        c_lanes = b_lanes and _first_lanes(c, read_c, mask)
        if not c_lanes:
            return None
        return modular(fn(a_lanes[0], b_lanes[0], c_lanes[0]),
                       fn(a_lanes[1], b_lanes[1], c_lanes[1]), last)

    return closed


def _end_lanes(value, read: Callable, last: int):
    """``value`` at lane 0 and at lane ``last`` as the end-lane rule reads
    it, or ``None`` when it is modular or its reader's wrap moves it."""
    if type(value) is Affine:
        low = value.base
        high = low + value.stride * last
        if value.ring is not None or read(low) != low or read(high) != high:
            return None
        return low, high
    low = read(value)
    return low, low


def _first_lanes(value, read: Callable, mask: int):
    """``value`` at lanes 0 and 1 as the ring rule reads it, or ``None``
    when it is not an ``int`` or AFFINE of at least ``mask``'s bits."""
    kind = type(value)
    if kind is Affine:
        if value.ring is not None and value.ring[0] < mask:
            return None
        return value.base, value.base + value.stride
    if kind is int:
        low = read(value)
        return low, low
    return None


def _one_affine_factor(a, b, *_addend) -> bool:
    return type(a) is not Affine or type(b) is not Affine


def _uniform_amount(_a, b) -> bool:
    return type(b) is not Affine


def _getters(exe, *operands) -> Tuple[Callable, ...]:
    return tuple(exe._compile_value(operand) for operand in operands)


# ----------------------------------------------------------------------
# Arithmetic compilers
#
# Each returns ``compute(regs, warp, lanes)`` producing the value
# assigned to the destination register over the active lanes — lane for
# lane the value the corresponding per-thread handler of the oracle
# (``tests/oracle.py``, ``_ARITH``) would have written.
# ----------------------------------------------------------------------
def _compile_convert(get: Callable, *type_names: Optional[str]) -> Callable:
    """``d = wrap_n(...wrap_1(source))``: ``mov``, ``cvt`` (source type
    first) and ``ld.param`` of a bound value."""
    wraps = [_make_wrap(name) for name in type_names]
    if all(wrap is _identity for wrap in wraps):

        def passthrough(regs, warp, lanes):
            value = get(regs, warp)
            if lanes is None or type(value) is not list:
                return value  # a stored list is never mutated: alias it
            return [value[lane] for lane in lanes]

        return passthrough
    first, last = wraps[0], wraps[-1]
    general = first if len(wraps) == 1 else lambda value: last(first(value))
    ranges = [_int_range(name) for name in type_names]
    if None in ranges:
        return _lift((get,), general)
    fast = inner = _int_wrap(*ranges[0])
    (source_mask, source_sign), (mask, sign) = ranges[0], ranges[-1]
    if sign < source_sign or mask - sign < source_mask - source_sign:
        # The destination does not hold every source value: wrap again.
        outer = _int_wrap(mask, sign)

        def fast(value):
            return outer(inner(value))

    closed = _closed(_identity, type_names[:1], type_names[-1])
    return _lift((get,), general, fast, closed)


def _compile_mov(exe, insn):
    _dst, src = insn.operands
    return _compile_convert(exe._compile_value(src), insn.value_type())


def _compile_cvt(exe, insn):
    # cvt.<dst_type>.<src_type> — wrap through the source type first.
    _dst, src = insn.operands
    types = [m for m in insn.modifiers if m in _CVT_TYPES]
    if len(types) != 2:
        return _compile_mov(exe, insn)
    return _compile_convert(exe._compile_value(src), types[1], types[0])


def _compile_cvta(exe, insn):
    # Address-space conversion is a no-op in our flat address model.
    _dst, src = insn.operands
    return _compile_convert(exe._compile_value(src), None)


def _compile_binop(fn, ring: Optional[Callable] = None, linear=None):
    """``d = wrap(fn(wrap(a), wrap(b)))``.

    ``ring`` is ``fn`` on integers when it is a ring or bitwise
    operation — one whose wrapped result depends only on the operands'
    low bits, so the reader's wraps can be skipped on the integer path.
    ``linear`` makes the opcode AFFINE-preserving (see :func:`_closed`).
    """

    def compiler(exe, insn: Instruction):
        _dst, a, b = insn.operands
        type_name = insn.value_type()
        wrap = _make_wrap(type_name)
        fast = closed = None
        ints = _int_range(type_name)
        if ring is not None and ints is not None:
            mask, sign = ints
            fast = (
                (lambda x, y: ((ring(x, y) + sign) & mask) - sign) if sign
                else (lambda x, y: ring(x, y) & mask)
            )
            if linear is not None:
                closed = _closed(fn, (type_name, type_name), type_name, linear)
        return _lift(
            _getters(exe, a, b), lambda x, y: wrap(fn(wrap(x), wrap(y))),
            fast, closed,
        )

    return compiler


def _compile_not(exe, insn):
    _dst, src = insn.operands
    type_name = insn.value_type()
    if type_name == "pred":
        # not.pred is logical negation, not bitwise complement.
        return _lift(_getters(exe, src), lambda value: 0 if value else 1)
    wrap = _make_wrap(type_name)
    return _lift(_getters(exe, src), lambda value: wrap(~int(value)),
                 closed=_unary_closed(operator.invert, type_name))


def _compile_neg(exe, insn):
    _dst, src = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    return _lift(_getters(exe, src), lambda value: wrap(-value),
                 closed=_unary_closed(operator.neg, type_name))


def _unary_closed(fn: Callable, type_name: Optional[str]) -> Optional[Callable]:
    """The :func:`_closed` form of ``fn``, an affine map of the integers
    (``-x``, ``~x = -1 - x``), on an integer type, the operand read raw;
    ``None`` on a float or untyped instruction."""
    if _int_range(type_name) is None:
        return None
    return _closed(fn, (None,), type_name)


def _compile_abs(exe, insn):
    _dst, src = insn.operands
    wrap = _make_wrap(insn.value_type())
    return _lift(_getters(exe, src), lambda value: wrap(abs(value)))


def _mul_shift(insn) -> int:
    type_name = insn.value_type()
    if insn.has_modifier("hi") and type_name and type_name not in FLOAT_TYPES:
        return type_width(type_name) * 8
    return 0


#: ``mul.lo`` (and float ``mul``) is just the ``*`` binop.
_MUL_LOW = _compile_binop(operator.mul, operator.mul, _one_affine_factor)


def _compile_mul(exe, insn):
    shift = _mul_shift(insn)
    if not shift:
        return _MUL_LOW(exe, insn)
    _dst, a, b = insn.operands
    wrap = _make_wrap(insn.value_type())
    return _lift(
        _getters(exe, a, b),
        lambda x, y: wrap(int(wrap(x) * wrap(y)) >> shift),
    )


def _compile_mad(exe, insn):
    # The addend is read raw: only the factors go through the type.
    _dst, a, b, c = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    getters = _getters(exe, a, b, c)
    shift = _mul_shift(insn)
    if shift:
        return _lift(
            getters,
            lambda x, y, z: wrap((int(wrap(x) * wrap(y)) >> shift) + z),
        )
    closed = None
    if _int_range(type_name) is not None:
        closed = _closed(
            lambda x, y, z: x * y + z, (type_name, type_name, None), type_name,
            _one_affine_factor,
        )
    return _lift(
        getters, lambda x, y, z: wrap(wrap(x) * wrap(y) + z), closed=closed
    )


def _compile_fma(exe, insn):
    _dst, a, b, c = insn.operands
    wrap = _make_wrap(insn.value_type())
    return _lift(_getters(exe, a, b, c), lambda x, y, z: wrap(x * y + z))


def _truncated_quotient(lhs, rhs):
    return int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs


def _compile_div(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    if type_name in FLOAT_TYPES:

        def divide(x, y):
            lhs, rhs = wrap(x), wrap(y)
            return wrap(lhs / rhs if rhs else float("inf"))

    else:

        def divide(x, y):
            lhs, rhs = wrap(x), wrap(y)
            # Modeled: integer division by zero yields 0.
            return wrap(_truncated_quotient(lhs, rhs) if rhs else 0)

    return _lift(_getters(exe, a, b), divide)


def _compile_rem(exe, insn):
    _dst, a, b = insn.operands
    wrap = _make_wrap(insn.value_type())

    def remainder(x, y):
        lhs, rhs = int(wrap(x)), int(wrap(y))
        return wrap(lhs - rhs * _truncated_quotient(lhs, rhs) if rhs else 0)

    return _lift(_getters(exe, a, b), remainder)


@lru_cache(maxsize=None)
def _compare_closed(compare: Callable, wrap: Callable, ordered: bool) -> Callable:
    """``closed(a, b, count)`` of an integer ``setp``: the UNIFORM
    answer when every lane gives the same one, else ``None``.

    Over exact AFFINE and ``int`` operands whose reader's wrap is the
    identity at both end lanes, ``a - b`` is affine in the lane.  An
    ordered compare is then monotone in the lane, so the end lanes
    decide for all of them; ``eq``/``ne`` decide only when ``a - b``
    has one strict sign at both end lanes (a UNIFORM outside the AFFINE
    operand's range) or is the same at both.
    """

    def closed(a, b, count):
        last = count - 1
        kind = type(a)
        if kind is Affine:
            a_low = a.base
            a_high = a_low + a.stride * last
            if a.ring is not None or wrap(a_low) != a_low or wrap(a_high) != a_high:
                return None
        elif kind is int:
            a_low = a_high = wrap(a)
        else:
            return None
        kind = type(b)
        if kind is Affine:
            b_low = b.base
            b_high = b_low + b.stride * last
            if b.ring is not None or wrap(b_low) != b_low or wrap(b_high) != b_high:
                return None
        elif kind is int:
            b_low = b_high = wrap(b)
        else:
            return None
        answer = compare(a_low, b_low)
        if ordered:
            if answer != compare(a_high, b_high):
                return None
        else:
            low = a_low - b_low
            high = a_high - b_high
            if low != high and low * high <= 0:
                return None
        return 1 if answer else 0

    return closed


def _compile_setp(exe, insn):
    _dst, a, b = insn.operands
    name = next(m for m in insn.modifiers if m in _COMPARES)
    compare = _COMPARES[name]
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    fast = closed = None
    ints = _int_range(type_name)
    if ints is not None:
        mask, sign = ints
        fast = (
            (lambda x, y: 1 if compare(((x + sign) & mask) - sign,
                                       ((y + sign) & mask) - sign) else 0)
            if sign
            else (lambda x, y: 1 if compare(x & mask, y & mask) else 0)
        )
        closed = _compare_closed(compare, wrap, name not in ("eq", "ne"))
    return _lift(
        _getters(exe, a, b),
        lambda x, y: 1 if compare(wrap(x), wrap(y)) else 0,
        fast, closed,
    )


def _compile_selp(exe, insn):
    _dst, a, b, pred = insn.operands
    wrap = _make_wrap(insn.value_type())
    return _lift(
        _getters(exe, a, b, pred),
        lambda x, y, p: wrap(x) if p else wrap(y),
    )


def _shift_bits(insn) -> int:
    """The width a shift amount clamps to (PTX: the amount is an
    unsigned 32-bit value, anything above the operand width acts as the
    width); 64, the widest register, for an untyped shift."""
    type_name = insn.value_type()
    return type_width(type_name) * 8 if type_name else 64


def _compile_shl(exe, insn):
    # Both operands are read raw; only the result is wrapped.
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    bits = _shift_bits(insn)

    def shift(x, amount):
        return int(x) << min(int(amount) & _U32, bits)

    closed = None
    if _int_range(type_name) is not None:
        closed = _closed(shift, (None, None), type_name, _uniform_amount)
    return _lift(
        _getters(exe, a, b), lambda x, y: wrap(shift(x, y)), closed=closed
    )


def _compile_shr(exe, insn):
    _dst, a, b = insn.operands
    wrap = _make_wrap(insn.value_type())
    bits = _shift_bits(insn)
    return _lift(
        _getters(exe, a, b),
        lambda x, y: wrap(int(wrap(x)) >> min(int(y) & _U32, bits)),
    )


def _compile_popc(exe, insn):
    _dst, src = insn.operands
    mask64 = (1 << 64) - 1
    return _lift(
        _getters(exe, src), lambda value: bin(int(value) & mask64).count("1")
    )


def _bitwise(ring):
    return _compile_binop(lambda a, b: ring(int(a), int(b)), ring)


def _always(_a, _b) -> bool:
    return True


_ARITH_COMPILERS: Dict[str, Callable] = {
    "mov": _compile_mov,
    "add": _compile_binop(operator.add, operator.add, _always),
    "sub": _compile_binop(operator.sub, operator.sub, _always),
    "mul": _compile_mul,
    "mad": _compile_mad,
    "fma": _compile_fma,
    "div": _compile_div,
    "rem": _compile_rem,
    "min": _compile_binop(min),
    "max": _compile_binop(max),
    "and": _bitwise(operator.and_),
    "or": _bitwise(operator.or_),
    "xor": _bitwise(operator.xor),
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
