"""Replay of the per-warp SIMT stacks (paper §3.3, ``K_w``).

Branches on GPUs are handled via a hardware SIMT stack whose top entry is
the set of currently-active threads.  The detector, the reference
detector, and the synchronization-order oracle all need to know which
threads are active at each point of a trace, so the replay logic lives
here once.

Transitions follow the IF and ELSEENDIF rules of Figure 2:

* ``if(w)`` splits the current active mask and pushes the else mask, then
  the then mask (so the then path executes first);
* ``else(w)`` pops the then mask, revealing the else mask;
* ``fi(w)`` pops the else mask, revealing the pre-branch mask.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from ..errors import TraceError
from .layout import GridLayout
from .operations import Else, Fi, If

#: Stack-entry phases: the trace grammar requires every ``if`` to be
#: closed by ``else`` then ``fi`` (empty paths are encoded with empty
#: masks, §3.1), and the replay enforces it so malformed traces are
#: rejected instead of silently mis-analyzed.
BASE = "base"
THEN = "then"
ELSE_PENDING = "else-pending"
ELSE_ACTIVE = "else-active"


class WarpStackSet:
    """The collection of SIMT stacks, one per warp of a launch."""

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self._stacks: Dict[int, List[List]] = {
            w: [[frozenset(layout.warp_tids(w)), BASE]] for w in layout.all_warps()
        }

    def active(self, warp: int) -> FrozenSet[int]:
        """The currently-active threads of ``warp`` (top of its stack)."""
        return self._stacks[warp][-1][0]

    def depth(self, warp: int) -> int:
        """Stack depth; 1 when the warp is fully converged."""
        return len(self._stacks[warp])

    def is_active(self, tid: int) -> bool:
        """Is thread ``tid`` active on its warp's current path?"""
        return tid in self.active(self.layout.warp_of(tid))

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def on_if(self, op: If) -> FrozenSet[int]:
        """Apply an ``if`` split; returns the newly-active (then) mask."""
        stack = self._stacks[op.warp]
        current = stack[-1][0]
        if op.then_mask & op.else_mask:
            raise TraceError(
                f"if(w{op.warp}): then and else masks overlap: "
                f"{sorted(op.then_mask & op.else_mask)}"
            )
        if (op.then_mask | op.else_mask) != current:
            raise TraceError(
                f"if(w{op.warp}): split {sorted(op.then_mask)} / "
                f"{sorted(op.else_mask)} does not cover active mask "
                f"{sorted(current)}"
            )
        stack.append([op.else_mask, ELSE_PENDING])
        stack.append([op.then_mask, THEN])
        return op.then_mask

    def on_else(self, op: Else) -> FrozenSet[int]:
        """Apply an ``else``; returns the newly-active (else) mask."""
        stack = self._stacks[op.warp]
        if len(stack) < 3 or stack[-1][1] is not THEN:
            raise TraceError(f"else(w{op.warp}) with no matching if")
        stack.pop()
        stack[-1][1] = ELSE_ACTIVE
        return stack[-1][0]

    def on_fi(self, op: Fi) -> FrozenSet[int]:
        """Apply a ``fi`` reconvergence; returns the newly-active mask.

        The grammar requires ``else`` before ``fi`` (an empty else path
        is still encoded, §3.1); a ``fi`` straight after the then path
        would silently desynchronize the detectors' clock bookkeeping.
        """
        stack = self._stacks[op.warp]
        if len(stack) < 2 or stack[-1][1] is not ELSE_ACTIVE:
            raise TraceError(f"fi(w{op.warp}) with no matching else")
        stack.pop()
        return stack[-1][0]
