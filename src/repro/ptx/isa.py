"""The PTX instruction-set subset BARRACUDA operates on.

PTX (Parallel Thread eXecution) is Nvidia's virtual assembly language; all
instructions are SIMD instructions executed by an entire warp (paper §2).
This module is the single source of truth for opcode classification: the
instrumentation engine (§4.1) uses it to decide which instructions need
logging calls, the interpreter uses it for dispatch, and the
acquire/release inference (§3.1) uses it to recognize fences and atomics.

The subset covers everything the paper's analysis cares about — loads,
stores, atomics, fences, barriers, branches, predication — plus enough
arithmetic to run realistic kernels.
"""

from __future__ import annotations

import enum
from typing import FrozenSet


class StateSpace(enum.Enum):
    """PTX state spaces (memory spaces) relevant to the analysis."""

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"
    PARAM = "param"
    #: Generic addresses; resolved against the space windows at runtime.
    GENERIC = "generic"


#: Integer/bit types with their width in bytes.
SCALAR_TYPES = {
    "u8": 1, "u16": 2, "u32": 4, "u64": 8,
    "s8": 1, "s16": 2, "s32": 4, "s64": 8,
    "b8": 1, "b16": 2, "b32": 4, "b64": 8,
    "f32": 4, "f64": 8,
    "pred": 1,
}

SIGNED_TYPES = frozenset({"s8", "s16", "s32", "s64"})
FLOAT_TYPES = frozenset({"f32", "f64"})


def type_width(type_name: str) -> int:
    """Width in bytes of a PTX scalar type."""
    return SCALAR_TYPES[type_name]


# ----------------------------------------------------------------------
# Opcode classification
# ----------------------------------------------------------------------
#: Plain arithmetic / data movement: never instrumented (Figure 9's point
#: that arithmetic typically dominates static instruction counts).
ARITHMETIC_OPCODES: FrozenSet[str] = frozenset({
    "mov", "add", "sub", "mul", "mad", "div", "rem", "min", "max",
    "and", "or", "xor", "not", "shl", "shr", "neg", "abs",
    "cvt", "cvta", "setp", "selp", "set", "mul24", "sad", "popc",
    "clz", "fma", "rcp", "sqrt", "rsqrt", "ex2", "lg2", "sin", "cos",
})

#: Memory accesses that get logging calls.
LOAD_OPCODES: FrozenSet[str] = frozenset({"ld", "ldu"})
STORE_OPCODES: FrozenSet[str] = frozenset({"st"})
ATOMIC_OPCODES: FrozenSet[str] = frozenset({"atom", "red"})

#: Synchronization instructions that get logging calls.
FENCE_OPCODES: FrozenSet[str] = frozenset({"membar", "fence"})
BARRIER_OPCODES: FrozenSet[str] = frozenset({"bar", "barrier"})

#: Control flow.
BRANCH_OPCODES: FrozenSet[str] = frozenset({"bra"})
EXIT_OPCODES: FrozenSet[str] = frozenset({"ret", "exit"})
CALL_OPCODES: FrozenSet[str] = frozenset({"call"})

#: Warp-level register exchange (``shfl.sync``) and votes
#: (``vote.sync``): sync-free communication that moves values between
#: lanes without touching memory, so it must never be instrumented or
#: flagged as a memory race.
SHUFFLE_OPCODES: FrozenSet[str] = frozenset({"shfl"})
VOTE_OPCODES: FrozenSet[str] = frozenset({"vote"})

#: Asynchronous global-to-shared copies (``cp.async`` and its
#: ``commit_group``/``wait_group`` bookkeeping).  The copy's completion
#: edge is the wait, not the issue; the interpreter emits the records
#: itself, so the opcode is deliberately *not* in
#: :data:`INSTRUMENTED_OPCODES`.
ASYNC_COPY_OPCODES: FrozenSet[str] = frozenset({"cp"})

#: Warp-wide intrinsics as a group (shuffle + vote).
WARP_SYNC_OPCODES = SHUFFLE_OPCODES | VOTE_OPCODES

#: Atomic operations commonly used to take a lock (§3.1: ``atom.cas``
#: followed by a fence is treated as an acquire)...
LOCK_ACQUIRE_ATOMS: FrozenSet[str] = frozenset({"cas"})
#: ... and to free one (``atom.exch`` preceded by a fence is a release).
LOCK_RELEASE_ATOMS: FrozenSet[str] = frozenset({"exch"})

#: Every atomic RMW operation the interpreter implements.
ATOMIC_OPERATIONS: FrozenSet[str] = frozenset({
    "add", "sub", "exch", "cas", "min", "max", "and", "or", "xor", "inc", "dec",
})

#: Pseudo-opcodes inserted by the BARRACUDA instrumentation engine.  They
#: are not real PTX; the leading underscore keeps them out of any valid
#: PTX namespace.  The interpreter executes them by emitting log records.
LOG_OPCODES: FrozenSet[str] = frozenset({"_log"})

#: Opcodes that define no register even when operand 0 is one.
NO_DEST_OPCODES: FrozenSet[str] = (
    STORE_OPCODES | frozenset({"red"}) | CALL_OPCODES | LOG_OPCODES
    | BRANCH_OPCODES | EXIT_OPCODES | BARRIER_OPCODES | FENCE_OPCODES
)

MEMORY_OPCODES = LOAD_OPCODES | STORE_OPCODES | ATOMIC_OPCODES
SYNC_OPCODES = FENCE_OPCODES | BARRIER_OPCODES
#: Instructions the instrumentation engine adds logging for (§4.1:
#: "all load, store, atomic, fence, and barrier instructions").
INSTRUMENTED_OPCODES = MEMORY_OPCODES | SYNC_OPCODES

ALL_OPCODES = (
    ARITHMETIC_OPCODES
    | MEMORY_OPCODES
    | SYNC_OPCODES
    | BRANCH_OPCODES
    | EXIT_OPCODES
    | CALL_OPCODES
    | LOG_OPCODES
    | WARP_SYNC_OPCODES
    | ASYNC_COPY_OPCODES
)


#: Special registers the interpreter provides per thread.
SPECIAL_REGISTERS: FrozenSet[str] = frozenset({
    "%tid", "%ntid", "%ctaid", "%nctaid", "%laneid", "%warpid", "%nwarpid",
    "%gridid", "%clock",
})
