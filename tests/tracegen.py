"""Shared random-trace generation for the detector property tests.

Builds arbitrary *feasible* traces (§3.1) through :class:`TraceBuilder`,
so every generated trace is one a real execution could produce: warp
instructions cover exactly the active threads, branches nest properly,
and barriers carry the actual arrived set.  Half the thread-level
instructions put every lane on one word, half put lane ``i`` on word
``i``: the detector's per-lane and range paths both see them.  Each
instruction has its own pc (its position in the generation loop), so a
report that names the wrong instruction is seen.
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import strategies as st

from repro.trace import (
    GridLayout, Location, Scope, TraceBuilder, global_loc, shared_loc)
from repro.trace.trace import Trace


def random_trace(rng: random.Random, max_ops: int = 28,
                 layout: Optional[GridLayout] = None) -> Trace:
    """One random feasible trace over ``layout``, or a small random
    layout."""
    if layout is None:
        layout = GridLayout(
            num_blocks=rng.choice([1, 2, 3]),
            threads_per_block=rng.choice([2, 4, 6]),
            warp_size=rng.choice([2, 4]),
        )
    builder = TraceBuilder(layout)
    global_locs = [global_loc(i * 4) for i in range(3)]
    depth = {w: 0 for w in layout.all_warps()}
    for pc in range(rng.randrange(3, max_ops)):
        warp = rng.randrange(layout.total_warps)
        active = builder.stacks.active(warp)
        block = layout.block_of_warp(warp)
        loc = rng.choice(global_locs + [shared_loc(block, 0)])
        if rng.random() < 0.5:
            # Lane i on word i from ``loc``: a coalesced row, which the
            # fused loop takes as one range access.
            first = layout.warp_span(warp)[0]
            loc = {t: Location(loc.space, loc.offset + 4 * (t - first),
                               loc.block) for t in layout.warp_tids(warp)}
        choice = rng.random()
        scope = rng.choice([Scope.BLOCK, Scope.GLOBAL])
        if choice < 0.25 and active:
            builder.read(warp, loc, pc=pc)
        elif choice < 0.50 and active:
            value = rng.choice([None, 1, 2, "per lane"])
            if value == "per lane":
                value = {t: 1 + t % 2 for t in active}
            builder.write(warp, loc, value=value, pc=pc)
        elif choice < 0.60 and active:
            builder.atomic(warp, loc, pc=pc)
        elif choice < 0.68 and active:
            builder.acquire(warp, loc, scope, pc=pc)
        elif choice < 0.76 and active:
            builder.release(warp, loc, scope, pc=pc)
        elif choice < 0.80 and active:
            builder.acqrel(warp, loc, scope, pc=pc)
        elif choice < 0.88 and active and depth[warp] < 2:
            then = frozenset(t for t in active if rng.random() < 0.5)
            builder.branch_if(warp, then, pc=pc)
            depth[warp] += 1
        elif choice < 0.94 and depth[warp] > 0:
            builder.branch_else(warp, pc=pc)
            builder.branch_fi(warp, pc=pc)
            depth[warp] -= 1
        else:
            builder.barrier(block, pc=pc)
    for warp in layout.all_warps():
        while depth[warp] > 0:
            builder.branch_else(warp)
            builder.branch_fi(warp)
            depth[warp] -= 1
    return builder.build()


@st.composite
def feasible_traces(draw, max_ops: int = 28,
                    layout: Optional[GridLayout] = None) -> Trace:
    """Hypothesis strategy producing feasible traces via a drawn seed."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_trace(random.Random(seed), max_ops=max_ops, layout=layout)
