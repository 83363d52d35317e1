"""Warp schedulers for the simulated device.

The choice of scheduler is part of the experimental methodology:

* :class:`RoundRobinScheduler` — fair interleaving; the default for
  running benchmarks and the bug suite.
* :class:`RandomScheduler` — randomized warp selection plus randomized
  store-queue draining, the "memory stress and thread randomization"
  strategy the paper borrows from Alglave et al. to provoke weak
  behaviour in the litmus tests (§3.3.3).
* :class:`WarpSerializingScheduler` — runs one warp to completion before
  the next.  This models the execution regime under which Nvidia's
  Racecheck hangs on spinlock tests (§6.1): a warp spinning on a lock
  held by an unscheduled warp never yields.

On top of those, the predictive subsystem (``repro.predict``) drives a
family of **sweep schedulers**: seeded, deterministic exploration
strategies whose every decision can be recorded and replayed.

* :class:`WarpOrderScheduler` — a seeded priority permutation over warps;
  warps run serialized in a randomly drawn order.
* :class:`BarrierShuffleScheduler` — serialized execution whose warp
  order is reshuffled every time the runnable set changes (barrier
  releases, warp completion): barrier-arrival shuffling.
* :class:`StoreDrainScheduler` — fair round-robin picks with seeded
  randomized store-queue draining, provoking weak-memory reorderings on
  relaxed architecture profiles.

Each sweep scheduler derives **two** independent RNG streams from its
one seed: picks consume ``_pick_rng`` and store draining consumes
``_drain_rng``.  The split is what makes witness replay exact: a
:class:`ReplayScheduler` substitutes the recorded decision trace for the
picks while a fresh inner scheduler reproduces the memory-system
behaviour from the drain stream alone.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..errors import ScheduleDivergence
from .interpreter import KernelExecution, WarpState

#: Mixing constant (the 32-bit golden ratio) separating the pick and
#: drain RNG streams derived from one sweep seed.
_DRAIN_STREAM_SALT = 0x9E3779B9


class Scheduler:
    """Picks the next warp and applies inter-step memory effects."""

    def pick(self, runnable: List[WarpState]) -> WarpState:  # pragma: no cover
        """Choose the warp that steps next.

        ``runnable`` is non-empty, holds every warp that is neither done
        nor parked at a barrier, and is ascending by warp id.  The device
        owns it and edits it in place between calls: do not retain or
        mutate it.
        """
        raise NotImplementedError

    def after_step(self, execution: KernelExecution) -> None:
        """Hook for memory-system activity between warp steps."""


class RoundRobinScheduler(Scheduler):
    """Cycle fairly through runnable warps; drain stores steadily."""

    def __init__(self, drain_interval: int = 4) -> None:
        self._cursor = 0
        self._steps = 0
        self.drain_interval = drain_interval

    def pick(self, runnable: List[WarpState]) -> WarpState:
        # Pick at the cursor *then* advance, so warp 0 gets the first
        # slot (an earlier version advanced first, which meant the
        # lowest-index runnable warp was never scheduled first).
        index = self._cursor % len(runnable)
        self._cursor = index + 1
        return runnable[index]

    def after_step(self, execution: KernelExecution) -> None:
        self._steps += 1
        if self.drain_interval and self._steps % self.drain_interval == 0:
            execution.global_mem.drain_heads(execution.layout.num_blocks)


class RandomScheduler(Scheduler):
    """Randomized scheduling + randomized draining (litmus-test mode)."""

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        drain_probability: float = 0.4,
        flush_interval: int = 256,
    ) -> None:
        self.rng = rng or random.Random(0)
        self.drain_probability = drain_probability
        self.flush_interval = flush_interval
        self._steps = 0

    def pick(self, runnable: List[WarpState]) -> WarpState:
        return self.rng.choice(runnable)

    def after_step(self, execution: KernelExecution) -> None:
        self._steps += 1
        if self.rng.random() < self.drain_probability:
            block = self.rng.randrange(execution.layout.num_blocks)
            execution.global_mem.drain_one(block, self.rng)
        if self.flush_interval and self._steps % self.flush_interval == 0:
            # Progress guarantee: pending stores eventually become visible
            # even under adversarial randomization.
            execution.global_mem.drain_all()


class WarpSerializingScheduler(Scheduler):
    """Run the lowest-index runnable warp until it blocks or finishes."""

    def pick(self, runnable: List[WarpState]) -> WarpState:
        return runnable[0]

    def after_step(self, execution: KernelExecution) -> None:
        execution.global_mem.drain_all()


# ----------------------------------------------------------------------
# Sweep schedulers (repro.predict)
# ----------------------------------------------------------------------
class SweepScheduler(Scheduler):
    """Base of the seeded, replayable schedule-exploration family."""

    #: Registry name of this strategy; set by subclasses.
    kind: str = ""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._pick_rng = random.Random(self.seed)
        self._drain_rng = random.Random(
            (self.seed ^ _DRAIN_STREAM_SALT) & 0xFFFFFFFF
        )
        self._steps = 0

    def _steady_drain(self, execution: KernelExecution, interval: int = 4) -> None:
        self._steps += 1
        if self._steps % interval == 0:
            execution.global_mem.drain_heads(execution.layout.num_blocks)


class WarpOrderScheduler(SweepScheduler):
    """Serialized execution in a seeded random warp-priority order.

    Every warp draws one priority the first time it becomes runnable
    (drawn in warp-id order, so the assignment is deterministic); the
    minimum-priority runnable warp then runs until it blocks.  This is
    the strategy that flips coarse-grained orderings: a reader scheduled
    wholesale before its writer manifests flag-handoff races the fair
    default schedule never exhibits.
    """

    kind = "warp-order"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._priority: Dict[int, float] = {}

    def pick(self, runnable: List[WarpState]) -> WarpState:
        priority = self._priority
        for state in runnable:
            if state.warp not in priority:
                priority[state.warp] = self._pick_rng.random()
        return min(runnable, key=lambda w: (priority[w.warp], w.warp))

    def after_step(self, execution: KernelExecution) -> None:
        self._steady_drain(execution)


class BarrierShuffleScheduler(SweepScheduler):
    """Serialized execution, order reshuffled at every arrival change.

    Whenever the runnable warp set changes — a barrier releases, a warp
    reaches a barrier or finishes — the execution order of the new set is
    redrawn.  This shuffles barrier arrival/departure orders between
    phases, the idiom that exposes guards whose safety silently depends
    on which warp leaves a barrier first.
    """

    kind = "barrier-shuffle"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._order: List[int] = []
        self._last_ids: FrozenSet[int] = frozenset()

    def pick(self, runnable: List[WarpState]) -> WarpState:
        ids = frozenset(state.warp for state in runnable)
        if ids != self._last_ids:
            order = sorted(ids)
            self._pick_rng.shuffle(order)
            self._order = order
            self._last_ids = ids
        by_id = {state.warp: state for state in runnable}
        for warp_id in self._order:
            state = by_id.get(warp_id)
            if state is not None:
                return state
        # Unreachable: _order covers exactly the runnable ids.
        raise AssertionError("no runnable warp in shuffle order")

    def after_step(self, execution: KernelExecution) -> None:
        self._steady_drain(execution)


class StoreDrainScheduler(SweepScheduler):
    """Fair picks with seeded randomized store-queue draining.

    Scheduling stays round-robin (so the instruction interleaving matches
    the default run) while store buffers drain in a seeded random order —
    on relaxed architecture profiles this provokes the weak-memory
    reorderings (§3.3.3) a steady FIFO drain can never exhibit.

    The drain probability is deliberately low: a queue must accumulate
    several stores between drain events before the randomized pick can
    commit them out of order — draining on every step would keep the
    queues near-empty and make reordering impossible.
    """

    kind = "store-drain"

    def __init__(self, seed: int, drain_probability: float = 0.15,
                 flush_interval: int = 256) -> None:
        super().__init__(seed)
        self.drain_probability = drain_probability
        self.flush_interval = flush_interval
        self._cursor = 0

    def pick(self, runnable: List[WarpState]) -> WarpState:
        index = self._cursor % len(runnable)
        self._cursor = index + 1
        return runnable[index]

    def after_step(self, execution: KernelExecution) -> None:
        self._steps += 1
        if self._drain_rng.random() < self.drain_probability:
            block = self._drain_rng.randrange(execution.layout.num_blocks)
            execution.global_mem.drain_one(block, self._drain_rng)
        if self.flush_interval and self._steps % self.flush_interval == 0:
            execution.global_mem.drain_all()


# ----------------------------------------------------------------------
# Recording and replay (witness schedules)
# ----------------------------------------------------------------------
class RecordingScheduler(Scheduler):
    """Wraps a scheduler and records every pick as a warp-id trace.

    The recorded ``decisions`` list is the decision trace a
    :class:`~repro.predict.witness.WitnessSchedule` serializes.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.decisions: List[int] = []

    def pick(self, runnable: List[WarpState]) -> WarpState:
        state = self.inner.pick(runnable)
        self.decisions.append(state.warp)
        return state

    def after_step(self, execution: KernelExecution) -> None:
        self.inner.after_step(execution)


class ReplayScheduler(Scheduler):
    """Replays a recorded decision trace, step for step.

    ``inner`` must be a fresh scheduler of the same kind and seed as the
    recording run: its ``after_step`` reproduces the memory-system
    effects (store draining) while the picks come from the trace.  Any
    mismatch between the trace and the execution raises
    :class:`~repro.errors.ScheduleDivergence`.
    """

    def __init__(self, decisions: Sequence[int], inner: Scheduler) -> None:
        self.decisions = list(decisions)
        self.inner = inner
        self._index = 0

    def pick(self, runnable: List[WarpState]) -> WarpState:
        if self._index >= len(self.decisions):
            raise ScheduleDivergence(
                f"decision trace exhausted after {self._index} steps with "
                f"{len(runnable)} warp(s) still runnable"
            )
        want = self.decisions[self._index]
        for state in runnable:
            if state.warp == want:
                self._index += 1
                return state
        raise ScheduleDivergence(
            f"decision {self._index} schedules warp {want}, which is not "
            f"runnable (runnable: {sorted(w.warp for w in runnable)})"
        )

    def after_step(self, execution: KernelExecution) -> None:
        self.inner.after_step(execution)


# ----------------------------------------------------------------------
# Scheduler registry
# ----------------------------------------------------------------------
#: CLI/service names for every constructible scheduler.  ``seed`` is
#: ignored by the deterministic seedless strategies.
SCHEDULER_KINDS = (
    "roundrobin",
    "random",
    "serialized",
    "warp-order",
    "barrier-shuffle",
    "store-drain",
)

#: The seeded, replayable strategies the sweep driver cycles through.
SWEEP_KINDS = ("warp-order", "barrier-shuffle", "store-drain")


def make_scheduler(kind: str, seed: int = 0) -> Scheduler:
    """Construct a scheduler by registry name.

    Raises :class:`ValueError` on unknown names so CLI/service layers
    surface typos instead of silently running the default schedule.
    """
    if kind == "roundrobin":
        return RoundRobinScheduler()
    if kind == "random":
        return RandomScheduler(random.Random(seed))
    if kind == "serialized":
        return WarpSerializingScheduler()
    if kind == "warp-order":
        return WarpOrderScheduler(seed)
    if kind == "barrier-shuffle":
        return BarrierShuffleScheduler(seed)
    if kind == "store-drain":
        return StoreDrainScheduler(seed)
    raise ValueError(
        f"unknown scheduler kind {kind!r} (choose from {', '.join(SCHEDULER_KINDS)})"
    )
