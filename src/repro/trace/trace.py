"""Traces, the trace builder, and the feasibility check of §3.1.

The paper considers only *feasible* traces:

1. a warp-level memory instruction from warp ``w`` is represented as a
   consecutive sequence of memory operations, one for each active thread
   of ``w``;
2. each of ``w``'s memory instructions is followed by an ``endi(w)``
   operation; and
3. branches are translated appropriately into ``if``/``else``/``fi``.

:class:`TraceBuilder` produces feasible traces by construction — it
maintains the SIMT stack replay and emits whole warp instructions — and
:func:`check_feasible` validates arbitrary operation sequences, which the
property-based tests use to reject malformed generator output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import TraceError
from .layout import GridLayout
from .operations import (
    THREAD_OPS,
    AcqRel,
    Acquire,
    AnyOp,
    Atomic,
    Barrier,
    Else,
    EndInsn,
    Fi,
    If,
    Location,
    Read,
    Release,
    Scope,
    Write,
)
from .stack import WarpStackSet


@dataclass
class Trace:
    """A feasible trace: a launch layout plus its operation sequence."""

    layout: GridLayout
    ops: List[AnyOp] = field(default_factory=list)

    def __iter__(self) -> Iterator[AnyOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: AnyOp) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[AnyOp]) -> None:
        self.ops.extend(ops)


class TraceBuilder:
    """Builds feasible traces one warp instruction at a time.

    The builder replays the SIMT stacks so callers only name the warp; the
    active mask is tracked automatically, mirroring how the device-side
    instrumentation logs whole warp instructions with their active masks
    (§4.2).
    """

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.trace = Trace(layout)
        self.stacks = WarpStackSet(layout)

    # ------------------------------------------------------------------
    # Memory instructions
    # ------------------------------------------------------------------
    def _emit_group(self, warp: int, ops: Sequence[AnyOp]) -> None:
        active = self.stacks.active(warp)
        if not active:
            # An instruction on an empty path is a NOP for every thread;
            # the hardware still walks the path but nothing is logged.
            return
        seen = {op.tid for op in ops}  # type: ignore[union-attr]
        if seen != active:
            raise TraceError(
                f"warp {warp} instruction covers threads {sorted(seen)} but "
                f"active mask is {sorted(active)}"
            )
        self.trace.extend(ops)
        self.trace.append(EndInsn(warp=warp, amask=active, pc=ops[0].pc))

    def _resolve_locs(
        self, warp: int, loc: "Location | Dict[int, Location]"
    ) -> Dict[int, Location]:
        """Map each active thread to its accessed location.

        Passing a single location models a warp where every lane hits the
        same address; a dict gives per-lane addresses (the common strided
        pattern).
        """
        active = self.stacks.active(warp)
        if isinstance(loc, Location):
            return {tid: loc for tid in active}
        missing = active - loc.keys()
        if missing:
            raise TraceError(
                f"warp {warp}: no address for active threads {sorted(missing)}"
            )
        return {tid: loc[tid] for tid in active}

    def read(self, warp: int, loc, pc: int = -1) -> None:
        """Emit a warp-level load: ``rd`` per active thread + ``endi``."""
        locs = self._resolve_locs(warp, loc)
        self._emit_group(
            warp, [Read(tid=t, loc=x, pc=pc) for t, x in sorted(locs.items())]
        )

    def write(self, warp: int, loc, value=None, pc: int = -1) -> None:
        """Emit a warp-level store.

        ``value`` may be a single int (every lane writes the same value,
        the benign "same-value" pattern) or a dict of per-thread values.
        """
        locs = self._resolve_locs(warp, loc)
        values: Dict[int, Optional[int]]
        if isinstance(value, dict):
            values = {t: value.get(t) for t in locs}
        else:
            values = {t: value for t in locs}
        self._emit_group(
            warp,
            [
                Write(tid=t, loc=x, value=values[t], pc=pc)
                for t, x in sorted(locs.items())
            ],
        )

    def atomic(self, warp: int, loc, pc: int = -1) -> None:
        """Emit a warp-level standalone atomic (``atm`` per lane)."""
        locs = self._resolve_locs(warp, loc)
        self._emit_group(
            warp, [Atomic(tid=t, loc=x, pc=pc) for t, x in sorted(locs.items())]
        )

    def acquire(self, warp: int, loc, scope: Scope, pc: int = -1) -> None:
        """Emit a warp-level acquire (load + fence)."""
        locs = self._resolve_locs(warp, loc)
        self._emit_group(
            warp,
            [Acquire(tid=t, loc=x, scope=scope, pc=pc) for t, x in sorted(locs.items())],
        )

    def release(self, warp: int, loc, scope: Scope, pc: int = -1) -> None:
        """Emit a warp-level release (fence + store)."""
        locs = self._resolve_locs(warp, loc)
        self._emit_group(
            warp,
            [Release(tid=t, loc=x, scope=scope, pc=pc) for t, x in sorted(locs.items())],
        )

    def acqrel(self, warp: int, loc, scope: Scope, pc: int = -1) -> None:
        """Emit a warp-level acquire-release (fence + atomic + fence)."""
        locs = self._resolve_locs(warp, loc)
        self._emit_group(
            warp,
            [AcqRel(tid=t, loc=x, scope=scope, pc=pc) for t, x in sorted(locs.items())],
        )

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def branch_if(self, warp: int, then_tids: Iterable[int], pc: int = -1) -> None:
        """Begin a branch: ``then_tids`` take the then path."""
        current = self.stacks.active(warp)
        then_mask = frozenset(then_tids)
        if not then_mask <= current:
            raise TraceError(
                f"if(w{warp}): then threads {sorted(then_mask - current)} "
                "are not active"
            )
        op = If(warp=warp, then_mask=then_mask, else_mask=current - then_mask, pc=pc)
        self.stacks.on_if(op)
        self.trace.append(op)

    def branch_else(self, warp: int, pc: int = -1) -> None:
        """Switch to the branch's else path."""
        op = Else(warp=warp, pc=pc)
        self.stacks.on_else(op)
        self.trace.append(op)

    def branch_fi(self, warp: int, pc: int = -1) -> None:
        """Reconverge after a branch."""
        op = Fi(warp=warp, pc=pc)
        self.stacks.on_fi(op)
        self.trace.append(op)

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def barrier(self, block: int, pc: int = -1) -> None:
        """Emit a block-wide barrier with the currently-active threads.

        If any thread of the block is inactive this encodes a barrier
        divergence bug, which the detector reports (§3.3.2).
        """
        active = frozenset().union(
            *(self.stacks.active(w) for w in self.layout.block_warps(block))
        )
        self.trace.append(Barrier(block=block, active=active, pc=pc))

    def build(self) -> Trace:
        """Return the accumulated trace."""
        return self.trace


def check_feasible(trace: Trace) -> None:
    """Validate the feasibility conditions of §3.1, raising ``TraceError``.

    Returns silently when the trace is feasible.
    """
    stacks = WarpStackSet(trace.layout)
    ops = trace.ops
    i = 0
    n = len(ops)
    while i < n:
        op = ops[i]
        if isinstance(op, THREAD_OPS):
            warp = trace.layout.warp_of(op.tid)
            active = stacks.active(warp)
            group: List[AnyOp] = []
            kind = type(op)
            while i < n and isinstance(ops[i], THREAD_OPS):
                cur = ops[i]
                if trace.layout.warp_of(cur.tid) != warp or not isinstance(cur, kind):
                    break
                group.append(cur)
                i += 1
            seen = [o.tid for o in group]
            if len(set(seen)) != len(seen):
                raise TraceError(f"warp {warp}: duplicate thread in instruction group")
            if set(seen) != active:
                raise TraceError(
                    f"warp {warp}: instruction group threads {sorted(seen)} != "
                    f"active mask {sorted(active)}"
                )
            for tid in seen:
                if not stacks.is_active(tid):
                    raise TraceError(f"inactive thread t{tid} performed an operation")
            if i >= n or not isinstance(ops[i], EndInsn) or ops[i].warp != warp:
                raise TraceError(
                    f"warp {warp}: memory instruction not followed by endi"
                )
            if ops[i].amask != active:
                raise TraceError(
                    f"warp {warp}: endi active mask {sorted(ops[i].amask)} != "
                    f"{sorted(active)}"
                )
            i += 1
        elif isinstance(op, EndInsn):
            raise TraceError(f"stray endi(w{op.warp}) without memory instruction")
        elif isinstance(op, If):
            stacks.on_if(op)
            i += 1
        elif isinstance(op, Else):
            stacks.on_else(op)
            i += 1
        elif isinstance(op, Fi):
            stacks.on_fi(op)
            i += 1
        elif isinstance(op, Barrier):
            arrived = frozenset().union(
                *(stacks.active(w) for w in trace.layout.barrier_warps(op.block))
            )
            if op.active != arrived:
                raise TraceError(
                    f"bar(b{op.block}): active set {sorted(op.active)} does "
                    f"not match the currently-active threads {sorted(arrived)}"
                )
            i += 1
        else:
            raise TraceError(f"unknown operation {op!r}")
