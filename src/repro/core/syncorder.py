"""Synchronization order ≤α and the declarative race definition (§3.2).

This module is an *oracle*: it computes the synchronization-order partial
order of a trace directly from its definition — per-thread program order,
barrier-style joins (``endi``/``bar``/``if``/``else``/``fi``), and
release→acquire edges with the paper's scope rule — and then reports a
race for every pair of conflicting, unordered data accesses.

It is deliberately implemented with an explicit dependency graph and a
forward reachability pass (bitsets over trace indices), sharing no code
with the vector-clock detectors.  The property-based tests use it to
validate Theorem 1: the BARRACUDA algorithm flags a race on a feasible
trace iff this oracle does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..trace.operations import (
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
from ..trace.stack import WarpStackSet
from ..trace.trace import Trace

_DATA_ACCESS = (Read, Write, Atomic)
_ACQUIRES = (Acquire, AcqRel)
_RELEASES = (Release, AcqRel)


@dataclass(frozen=True)
class SpecRace:
    """A racing pair of trace indices, with their accesses."""

    first_index: int
    second_index: int
    loc: Location

    def __str__(self) -> str:
        return f"race({self.first_index}, {self.second_index}) on {self.loc}"


def _scopes_synchronize(rel: Scope, acq: Scope, rel_block: int, acq_block: int) -> bool:
    """The inter-thread synchronization condition of §3.2.

    A release and a later acquire on the same location synchronize when
    both are at block scope within the same thread block, or at least one
    of them is at global scope.
    """
    if rel is Scope.GLOBAL or acq is Scope.GLOBAL:
        return True
    return rel_block == acq_block


class SyncOrder:
    """The ≤α relation of one trace, queryable by trace index."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._reach, _ = _reachability(trace, _resolve_sync_sets(trace))

    def ordered(self, i: int, j: int) -> bool:
        """Does trace op ``i`` happen before trace op ``j`` (i < j)?"""
        if i >= j:
            i, j = j, i
        if i == j:
            return True
        return bool(self._reach[j] & (1 << i))


def _resolve_sync_sets(trace: Trace) -> List[FrozenSet[int]]:
    """The set of threads each operation involves, replaying SIMT stacks."""
    stacks = WarpStackSet(trace.layout)
    sets: List[FrozenSet[int]] = []
    for op in trace.ops:
        if isinstance(op, THREAD_OPS):
            sets.append(frozenset((op.tid,)))
        elif isinstance(op, EndInsn):
            sets.append(op.amask)
        elif isinstance(op, Barrier):
            sets.append(op.active)
        elif isinstance(op, If):
            # The IF rule joins and forks the then threads only; the else
            # threads synchronize later at the else operation.
            stacks.on_if(op)
            sets.append(op.then_mask)
        elif isinstance(op, Else):
            sets.append(stacks.on_else(op))
        elif isinstance(op, Fi):
            sets.append(stacks.on_fi(op))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown operation {op!r}")
    return sets


def _reachability(
    trace: Trace,
    sync_sets: Sequence[FrozenSet[int]],
    keep_acquires: Optional[AbstractSet[int]] = None,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Per-op predecessor bitsets under ≤α (transitively closed), and the
    ``(release, acquire)`` edges left out.

    All synchronization edges point forward in trace order, so one forward
    pass that unions predecessor sets computes the full closure.  A
    release→acquire edge is kept only when the acquire's index is in
    ``keep_acquires`` (default: every acquire); the predictive analysis
    passes a subset to relax the others.
    """
    layout = trace.layout
    n = len(trace.ops)
    reach = [0] * n
    dropped: List[Tuple[int, int]] = []
    last_by_tid: Dict[int, int] = {}
    # All releases seen so far per location: (index, scope, block).
    releases: Dict[Location, List[Tuple[int, Scope, int]]] = {}

    for j, op in enumerate(trace.ops):
        preds = 0
        for tid in sync_sets[j]:
            i = last_by_tid.get(tid)
            if i is not None:
                preds |= reach[i] | (1 << i)
        if isinstance(op, _ACQUIRES):
            acq_block = layout.block_of(op.tid)
            keep = keep_acquires is None or j in keep_acquires
            for i, rel_scope, rel_block in releases.get(op.loc, ()):
                if _scopes_synchronize(rel_scope, op.scope, rel_block, acq_block):
                    if keep:
                        preds |= reach[i] | (1 << i)
                    else:
                        dropped.append((i, j))
        reach[j] = preds
        for tid in sync_sets[j]:
            last_by_tid[tid] = j
        if isinstance(op, _RELEASES):
            releases.setdefault(op.loc, []).append(
                (j, op.scope, layout.block_of(op.tid))
            )
    return reach, dropped


def _conflicting(a: AnyOp, b: AnyOp) -> bool:
    if not isinstance(a, _DATA_ACCESS) or not isinstance(b, _DATA_ACCESS):
        return False
    if a.loc != b.loc:
        return False
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        return False
    return isinstance(a, (Write, Atomic)) or isinstance(b, (Write, Atomic))


def instruction_groups(trace: Trace) -> List[Tuple[int, int]]:
    """Per-op (warp, instruction-counter) identity of thread-level ops.

    All per-thread operations of one warp-level instruction share a group
    id; the counter advances at every ``endi``/branch operation and at
    barriers.  Non-thread-level ops get ``(-1, -1)``.  This is how the
    detector knows two writes came from the *same* warp instruction, the
    only case where the benign same-value filter of §3.3.1 applies.
    """
    layout = trace.layout
    counters: Dict[int, int] = {}
    groups: List[Tuple[int, int]] = []
    for op in trace.ops:
        if isinstance(op, THREAD_OPS):
            warp = layout.warp_of(op.tid)
            groups.append((warp, counters.get(warp, 0)))
        else:
            groups.append((-1, -1))
            if isinstance(op, (EndInsn, If, Else, Fi)):
                counters[op.warp] = counters.get(op.warp, 0) + 1
            elif isinstance(op, Barrier):
                for warp in layout.barrier_warps(op.block):
                    counters[warp] = counters.get(warp, 0) + 1
    return groups


def _same_value_same_instruction(
    a: AnyOp, b: AnyOp, group_a: Tuple[int, int], group_b: Tuple[int, int]
) -> bool:
    """The benign "same-value" intra-warp write-write pattern (§3.3.1).

    Applies only to writes from the *same* warp instruction: lockstep
    execution means all active threads ran the same instruction, and the
    CUDA documentation defines the outcome when they store the same value.
    Same-warp writes on different branch paths are branch ordering races
    and are never filtered.
    """
    if not (isinstance(a, Write) and isinstance(b, Write)):
        return False
    if a.value is None or a.value != b.value:
        return False
    return group_a == group_b and group_a[0] >= 0


def find_races(
    trace: Trace, filter_same_value: bool = True
) -> List[SpecRace]:
    """All racing pairs of a trace, straight from the §3.2 definition.

    A data race is two operations that access the same location, at least
    one of which is a write, that are not both atomics, and that are
    unordered under ≤α.  Same-value same-instruction intra-warp write
    pairs are filtered by default, matching the detector.
    """
    order = SyncOrder(trace)
    groups = instruction_groups(trace)
    accesses: Dict[Location, List[int]] = {}
    for idx, op in enumerate(trace.ops):
        if isinstance(op, _DATA_ACCESS):
            accesses.setdefault(op.loc, []).append(idx)

    races: List[SpecRace] = []
    for loc, indices in accesses.items():
        for pos, j in enumerate(indices):
            b = trace.ops[j]
            for i in indices[:pos]:
                a = trace.ops[i]
                if not _conflicting(a, b):
                    continue
                if order.ordered(i, j):
                    continue
                if filter_same_value and _same_value_same_instruction(
                    a, b, groups[i], groups[j]
                ):
                    continue
                races.append(SpecRace(i, j, loc))
    return races


def racy_locations(trace: Trace, filter_same_value: bool = True) -> Set[Location]:
    """The set of locations with at least one race."""
    return {race.loc for race in find_races(trace, filter_same_value)}


def find_visible_races(
    trace: Trace, filter_same_value: bool = True
) -> List[SpecRace]:
    """The races the *algorithm* can observe, as an independent oracle.

    FastTrack-style detectors keep only the most recent write epoch and
    the most recent read per thread, so a conflicting pair is reported
    only while its earlier access is still recorded in shadow memory.
    For plain reads and writes this loses nothing (ordering with the
    recorded access transitively implies ordering with the dropped ones),
    but atomics break the transitivity: an atomic chain can *shadow* an
    older non-atomic write, because the ATOM* rules elide checks against
    a previous atomic write (§3.3.2) while still replacing the write
    epoch.  The published algorithm therefore misses write-vs-atomic
    pairs separated by an unrelated atomic — a documented approximation.

    This function simulates exactly which accesses are recorded (shadow
    content, not clocks) and queries :class:`SyncOrder` for ordering, so
    it shares no vector-clock code with the detectors yet must agree with
    them pair-for-pair.  The property tests assert that equality.
    """
    order = SyncOrder(trace)
    groups = instruction_groups(trace)

    class _Shadow:
        __slots__ = ("write", "reads", "shared")

        def __init__(self) -> None:
            self.write: Optional[int] = None  # index of recorded write-like op
            self.reads: Dict[int, int] = {}  # tid -> index of recorded read
            self.shared = False  # read metadata in VC (map) form

    shadows: Dict[Location, _Shadow] = {}
    races: List[SpecRace] = []

    def check_write(j: int, op: AnyOp, shadow: _Shadow) -> None:
        i = shadow.write
        if i is None:
            return
        prior = trace.ops[i]
        if isinstance(prior, Atomic) and isinstance(op, Atomic):
            return  # ATOM* rules elide the check between atomics
        if order.ordered(i, j):
            return
        if filter_same_value and _same_value_same_instruction(
            prior, op, groups[i], groups[j]
        ):
            return
        races.append(SpecRace(i, j, op.loc))

    def check_reads(j: int, op: AnyOp, shadow: _Shadow) -> None:
        for i in shadow.reads.values():
            if not order.ordered(i, j):
                races.append(SpecRace(i, j, op.loc))

    for j, op in enumerate(trace.ops):
        if not isinstance(op, _DATA_ACCESS):
            continue
        shadow = shadows.setdefault(op.loc, _Shadow())
        if isinstance(op, Read):
            check_write(j, op, shadow)
            if shadow.shared:
                shadow.reads[op.tid] = j  # READSHARED
            elif all(order.ordered(i, j) for i in shadow.reads.values()):
                shadow.reads = {op.tid: j}  # READEXCL
            else:
                shadow.reads[op.tid] = j  # READINFLATE
                shadow.shared = True
        else:  # Write or Atomic
            check_write(j, op, shadow)
            check_reads(j, op, shadow)
            shadow.write = j
            shadow.reads = {}
            shadow.shared = False
    return races


def find_barrier_divergence(trace: Trace) -> List[int]:
    """Indices of barriers executed while some block thread was inactive."""
    divergent = []
    for idx, op in enumerate(trace.ops):
        if isinstance(op, Barrier):
            expected = frozenset(trace.layout.barrier_tids(op.block))
            if op.active != expected:
                divergent.append(idx)
    return divergent
