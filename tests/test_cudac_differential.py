"""Differential testing: compiled expression semantics vs a C model.

Random integer expressions are compiled through the full pipeline
(mini CUDA-C → PTX → interpreter) and compared against a direct Python
evaluation with C's 32-bit two's-complement semantics (truncating
division, wrap-around arithmetic).

Expressions mix literals and ``blockIdx.x`` (UNIFORM across a warp),
``threadIdx.x`` (AFFINE in the lane) and everything that stops being
either (products of thread ids, divisions, bit operations, wraps), and
an optional divergent guard reassigns the result on some lanes only —
so generated *programs* cross every shape of the engine's warp-level
register file (``repro.gpu.values``).  Example budgets come from the
hypothesis profile (``tests/conftest.py``).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.cudac import compile_cuda
from repro.gpu import GpuDevice

_MASK = (1 << 32) - 1


def _to_signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value >= 1 << 31 else value


def _c_div(a: int, b: int) -> int:
    if b == 0:
        return 0  # the interpreter's documented choice
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_rem(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - b * _c_div(a, b)


class Expr:
    """A tiny expression AST shared by the C renderer and the model."""

    def __init__(self, op, *children):
        self.op = op
        self.children = children

    def render(self) -> str:
        if self.op == "lit":
            value = self.children[0]
            # Parenthesize negatives: "-- 1" would lex as a decrement.
            return f"({value})" if value < 0 else str(value)
        if self.op == "tid":
            return "t"
        if self.op == "bid":
            return "b"
        if self.op == "neg":
            return f"(-{self.children[0].render()})"
        left, right = self.children
        return f"({left.render()} {self.op} {right.render()})"

    def evaluate(self, t: int, block: int = 0) -> int:
        if self.op == "lit":
            return self.children[0]
        if self.op == "tid":
            return t
        if self.op == "bid":
            return block
        if self.op == "neg":
            return _to_signed(-self.children[0].evaluate(t, block))
        a = self.children[0].evaluate(t, block)
        b = self.children[1].evaluate(t, block)
        if self.op == "+":
            return _to_signed(a + b)
        if self.op == "-":
            return _to_signed(a - b)
        if self.op == "*":
            return _to_signed(a * b)
        if self.op == "/":
            return _to_signed(_c_div(a, b))
        if self.op == "%":
            return _to_signed(_c_rem(a, b))
        if self.op == "&":
            return _to_signed(a & b)
        if self.op == "|":
            return _to_signed(a | b)
        if self.op == "^":
            return _to_signed(a ^ b)
        if self.op == "<<":
            return _to_signed(a << b)
        if self.op == ">>":
            return _to_signed(a >> b)
        raise AssertionError(self.op)


def exprs(depth: int = 3):
    leaf = st.one_of(
        st.integers(-100, 100).map(lambda v: Expr("lit", v)),
        st.just(Expr("tid")),
        st.just(Expr("bid")),
    )
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    binop = st.tuples(
        st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^"]), sub, sub
    ).map(lambda t: Expr(t[0], t[1], t[2]))
    shift = st.tuples(
        st.sampled_from(["<<", ">>"]), sub, st.integers(0, 8).map(lambda v: Expr("lit", v))
    ).map(lambda t: Expr(t[0], t[1], t[2]))
    neg = sub.map(lambda e: Expr("neg", e))
    return st.one_of(leaf, binop, shift, neg)


@given(exprs(), st.none() | st.tuples(st.integers(1, 7), exprs(depth=2)))
def test_compiled_expressions_match_c_semantics(expr, guarded):
    guard = ""
    if guarded is not None:
        bits, other = guarded
        guard = f"if (t & {bits}) {{ v = {other.render()}; }}"
    source = f"""
__global__ void eval(int* out) {{
    int t = threadIdx.x;
    int b = blockIdx.x;
    int v = {expr.render()};
    {guard}
    out[b * blockDim.x + t] = v;
}}
"""
    module = compile_cuda(source)
    device = GpuDevice()
    out = device.alloc(16 * 4)
    device.launch(module, "eval", grid=2, block=8, warp_size=4,
                  params={"out": out})
    got = [_to_signed(v) for v in device.memcpy_from_device(out, 16)]
    expected = [
        guarded[1].evaluate(t, block) if guarded is not None and t & guarded[0]
        else expr.evaluate(t, block)
        for block in range(2) for t in range(8)
    ]
    assert got == expected, source


@given(exprs(depth=2), exprs(depth=2))
def test_compiled_comparisons_match(left, right):
    source = f"""
__global__ void cmp(int* out) {{
    int t = threadIdx.x;
    int b = blockIdx.x;
    if ({left.render()} < {right.render()}) {{
        out[t] = 1;
    }} else {{
        out[t] = 0;
    }}
}}
"""
    module = compile_cuda(source)
    device = GpuDevice()
    out = device.alloc(8 * 4)
    device.launch(module, "cmp", grid=1, block=8, warp_size=4,
                  params={"out": out})
    got = device.memcpy_from_device(out, 8)
    expected = [1 if left.evaluate(t) < right.evaluate(t) else 0 for t in range(8)]
    assert got == expected
