"""Predictive race analysis: relax the observed synchronization order.

BARRACUDA's detector (and the :mod:`repro.core.syncorder` oracle) report
races of the *one* interleaving a run happened to observe.  This module
asks the predictive question instead: which conflicting access pairs
were ordered only by synchronization edges that a *different legal
schedule* would not have produced?

The relaxation keeps every ordering source that any schedule must
respect —

* per-thread program order,
* barrier joins and warp-lockstep joins (``endi``/``if``/``else``/``fi``),

and drops release→acquire edges, which merely record that the acquiring
load *happened* to observe the releasing store in this run.  Two
refinements keep the prediction sound for the synchronization idioms the
suite models:

* **Spin evidence** — an acquire is *forced* (its edge is kept) when its
  thread issued the same acquire instruction on the same location more
  than once: it demonstrably waited for the flag, so every schedule
  orders it after the release it observed.  A single non-repeated
  acquire is exactly the unlucky-timing pattern a reschedule breaks.
* **Common-lock suppression** — a location is a *lock* when some thread
  acquires and later releases it; two accesses both inside critical
  sections of a common lock are mutually exclusive under every schedule
  and are never predicted, even though their release→acquire edges are
  individually relaxable.

A predicted race is then a conflicting pair ordered under the full ≤α
relation but unordered under the relaxed one — by construction disjoint
from the races the observed schedule already reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..core.races import AccessType, RaceReport, classify
from ..core.syncorder import (
    _conflicting,
    _reachability,
    _resolve_sync_sets,
    _same_value_same_instruction,
    instruction_groups,
)
from ..columnar import ColumnarBatch, rows_to_ops
from ..trace.layout import GridLayout
from ..trace.operations import (
    AcqRel,
    Acquire,
    Atomic,
    Location,
    Read,
    Release,
    Write,
)
from ..trace.trace import Trace

_DATA_ACCESS = (Read, Write, Atomic)
_ACQUIRES = (Acquire, AcqRel)
_RELEASES = (Release, AcqRel)

#: Safety valve: traces beyond this many operations are not analyzed
#: (the all-pairs scan is quadratic per location).
DEFAULT_MAX_OPS = 200_000


@dataclass(frozen=True)
class PredictedRace:
    """A conflicting pair orderable only by a relaxable sync edge.

    ``first``/``second`` follow trace order of the *observed* run; under
    the predicted schedule either order may occur.
    """

    loc: Location
    first_index: int
    second_index: int
    first_tid: int
    second_tid: int
    first_pc: int
    second_pc: int

    def __str__(self) -> str:
        return (
            f"predicted race on {self.loc}: op {self.first_index} "
            f"(t{self.first_tid}) vs op {self.second_index} (t{self.second_tid})"
        )


@dataclass
class PredictionResult:
    """Everything one predictive analysis produced."""

    predicted: List[PredictedRace]
    #: (release index, acquire index) edges the relaxation dropped.
    relaxed_edges: List[Tuple[int, int]]
    #: Acquire indices kept because of spin evidence.
    forced_acquires: FrozenSet[int]
    #: Locations recognized as locks (acquired then released by one thread).
    lock_locations: FrozenSet[Location]
    #: True when the trace exceeded ``max_ops`` and was not analyzed.
    truncated: bool = False


def trace_from_rows(
    batches: Iterable[ColumnarBatch], layout: GridLayout, granularity: int = 4
) -> Trace:
    """Expand a captured row log into a §3.1 trace."""
    trace = Trace(layout)
    for batch in batches:
        trace.extend(rows_to_ops(batch, layout, granularity))
    return trace


def _spin_forced_acquires(trace: Trace) -> FrozenSet[int]:
    """Acquire indices whose thread demonstrably waited on the location.

    Spin loops log one acquire per iteration from the same instruction
    (same pc) on the same location; seeing the instruction more than once
    for a thread is the evidence that the final acquire's ordering is
    schedule-independent.
    """
    counts: Dict[Tuple[int, int, Location], int] = {}
    for op in trace.ops:
        if isinstance(op, _ACQUIRES):
            key = (op.tid, op.pc, op.loc)
            counts[key] = counts.get(key, 0) + 1
    forced: Set[int] = set()
    for index, op in enumerate(trace.ops):
        if isinstance(op, _ACQUIRES):
            if counts[(op.tid, op.pc, op.loc)] >= 2:
                forced.add(index)
    return frozenset(forced)


def _lock_locations(trace: Trace) -> FrozenSet[Location]:
    """Locations some thread acquired and later released (lock pattern)."""
    held: Dict[Tuple[int, Location], bool] = {}
    locks: Set[Location] = set()
    for op in trace.ops:
        if isinstance(op, _ACQUIRES):
            held[(op.tid, op.loc)] = True
        if isinstance(op, _RELEASES):
            if held.get((op.tid, op.loc)):
                locks.add(op.loc)
    return frozenset(locks)


def _critical_sections(
    trace: Trace, locks: FrozenSet[Location]
) -> List[FrozenSet[Location]]:
    """Per-op set of locks its thread holds at that point (data ops only)."""
    held: Dict[int, Set[Location]] = {}
    sections: List[FrozenSet[Location]] = []
    for op in trace.ops:
        if isinstance(op, _ACQUIRES) and op.loc in locks:
            held.setdefault(op.tid, set()).add(op.loc)
        if isinstance(op, _DATA_ACCESS):
            sections.append(frozenset(held.get(op.tid, ())))
        else:
            sections.append(frozenset())
        if isinstance(op, _RELEASES) and op.loc in locks:
            held.setdefault(op.tid, set()).discard(op.loc)
    return sections


def predict_races(
    trace: Trace,
    filter_same_value: bool = True,
    max_ops: int = DEFAULT_MAX_OPS,
) -> PredictionResult:
    """Predict races a legal reschedule of ``trace`` could exhibit.

    Returns pairs that are *ordered* under the full synchronization order
    (so the observed run did not report them) but *unordered* once
    relaxable release→acquire edges are dropped.  Pairs protected by a
    common lock's critical sections are suppressed.
    """
    if len(trace.ops) > max_ops:
        return PredictionResult(
            predicted=[],
            relaxed_edges=[],
            forced_acquires=frozenset(),
            lock_locations=frozenset(),
            truncated=True,
        )
    sync_sets = _resolve_sync_sets(trace)
    forced = _spin_forced_acquires(trace)
    locks = _lock_locations(trace)
    sections = _critical_sections(trace, locks)
    full_reach, _ = _reachability(trace, sync_sets)
    relaxed_reach, relaxed_edges = _reachability(trace, sync_sets, forced)
    groups = instruction_groups(trace)

    def ordered(reach: List[int], i: int, j: int) -> bool:
        return bool(reach[j] & (1 << i))

    accesses: Dict[Location, List[int]] = {}
    for idx, op in enumerate(trace.ops):
        if isinstance(op, _DATA_ACCESS):
            accesses.setdefault(op.loc, []).append(idx)

    predicted: List[PredictedRace] = []
    for loc, indices in accesses.items():
        for pos, j in enumerate(indices):
            b = trace.ops[j]
            for i in indices[:pos]:
                a = trace.ops[i]
                if not _conflicting(a, b):
                    continue
                if ordered(relaxed_reach, i, j):
                    continue  # still forced — not a race under any schedule
                if not ordered(full_reach, i, j):
                    continue  # already racy in the observed run
                if filter_same_value and _same_value_same_instruction(
                    a, b, groups[i], groups[j]
                ):
                    continue
                if sections[i] & sections[j]:
                    continue  # mutually excluded by a common lock
                predicted.append(
                    PredictedRace(
                        loc=loc,
                        first_index=i,
                        second_index=j,
                        first_tid=a.tid,
                        second_tid=b.tid,
                        first_pc=a.pc,
                        second_pc=b.pc,
                    )
                )
    return PredictionResult(
        predicted=predicted,
        relaxed_edges=relaxed_edges,
        forced_acquires=forced,
        lock_locations=locks,
    )


def _access_type(op) -> AccessType:
    if isinstance(op, Write):
        return AccessType.WRITE
    if isinstance(op, Atomic):
        return AccessType.ATOMIC
    return AccessType.READ


def predicted_to_report(trace: Trace, prediction: PredictedRace) -> RaceReport:
    """Render one :class:`PredictedRace` as a classified race report.

    The later access of the observed trace plays ``current`` (matching
    the detector's shadow-memory convention); ``predicted=True`` and
    ``confirmed=False`` mark it as an unconfirmed prediction until a
    witness schedule reproduces it.
    """
    from dataclasses import replace

    first = trace.ops[prediction.first_index]
    second = trace.ops[prediction.second_index]
    report = classify(
        trace.layout,
        prediction.loc,
        current_tid=prediction.second_tid,
        current_access=_access_type(second),
        prior_tid=prediction.first_tid,
        prior_access=_access_type(first),
        current_pc=prediction.second_pc,
        prior_pc=prediction.first_pc,
    )
    return replace(report, predicted=True, confirmed=False)
