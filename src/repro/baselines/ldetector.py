"""An LDetector-style baseline: value-based write detection (§7).

LDetector (Li et al., WODET 2014) finds races in both shared and global
memory — unlike the shared-only tools — but it discovers *writes by
diffing values*, so per the paper "it may miss bugs that involve a
thread overwriting a location with the location's existing value", and
"does not handle atomics or memory fences".

The mechanical model here:

* intervals are delimited by block barriers (its parallel-phase model);
* within an interval, a store is *visible* only if it changes the
  location's value — a silent overwrite does not exist to the tool;
* two distinct threads with visible writes to one location in one
  interval are reported as a write-write race (read-write races are
  outside its value-diffing reach);
* atomics look like ordinary writes (no atomics handling → reports
  atomic-atomic "races" that are not races), and releases like stores
  (no fence handling → properly fenced publication still flagged when
  two threads take turns writing different values in one interval).

Together with :mod:`repro.baselines.racecheck` this gives the evaluation
a three-way comparison along the paper's related-work axes: memory-space
coverage, value-blindness, and synchronization awareness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DeadlockError, SimulationError, StepLimitExceeded
from ..events import LogRecord, RecordKind
from ..jobs import record_stream
from ..suite.model import SuiteProgram, Verdict
from ..trace.layout import GridLayout
from ..trace.operations import Space


@dataclass(frozen=True)
class ValueConflict:
    """One reported value-based write-write conflict."""

    space: str
    offset: int
    first_tid: int
    second_tid: int

    def __str__(self) -> str:
        return (
            f"value-diff WW conflict on {self.space}[{self.offset:#x}]: "
            f"t{self.first_tid} vs t{self.second_tid}"
        )


@dataclass
class _LocationState:
    value: Optional[int] = None
    #: Visible writers in the current interval.
    writers: Set[int] = field(default_factory=set)


class LDetector:
    """Value-based write-write conflict detection over the event stream."""

    _WRITE_KINDS = {
        RecordKind.STORE,
        RecordKind.RELEASE,  # no fence model: a release is just a store
        RecordKind.ATOMIC,  # no atomics model: an atomic is just a store
        RecordKind.ACQREL,
    }

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.conflicts: List[ValueConflict] = []
        self._state: Dict[Tuple[str, int, int], _LocationState] = {}
        self._reported: Set[Tuple[str, int, int]] = set()

    def _key(self, tid: int, space: Space, offset: int) -> Tuple[str, int, int]:
        block = self.layout.block_of(tid) if space is Space.SHARED else -1
        return (space.value, block, offset)

    def consume(self, records) -> None:
        for record in records:
            self._consume_one(record)

    def _consume_one(self, record: LogRecord) -> None:
        if record.kind is RecordKind.BARRIER:
            block = record.warp
            for key, state in self._state.items():
                space, key_block, _offset = key
                if space == Space.SHARED.value and key_block != block:
                    continue
                # Barriers end the parallel phase for the block's shared
                # memory; for global memory LDetector's phases are grid
                # steps — block barriers conservatively reset writers
                # whose threads belong to the block.
                state.writers = {
                    tid for tid in state.writers
                    if self.layout.block_of(tid) != block
                }
            return
        if record.kind not in self._WRITE_KINDS:
            return
        value_known = record.kind is RecordKind.STORE
        for tid in sorted(record.active):
            space, offset = record.addrs[tid]
            key = self._key(tid, space, offset)
            state = self._state.setdefault(key, _LocationState())
            if value_known:
                new_value = record.values.get(tid)
                visible = new_value is None or new_value != state.value
                if new_value is not None:
                    if visible:
                        state.value = new_value
                    else:
                        continue  # a silent overwrite: invisible to diffing
            # Atomics/releases have unknown values: always "visible".
            others = state.writers - {tid}
            if others and key not in self._reported:
                self._reported.add(key)
                self.conflicts.append(
                    ValueConflict(
                        space=key[0],
                        offset=offset,
                        first_tid=min(others),
                        second_tid=tid,
                    )
                )
            state.writers.add(tid)


def run_ldetector(program: SuiteProgram) -> Verdict:
    """Run one suite program under the LDetector model."""
    verdict = Verdict(program=program.name)
    try:
        # The tool predates cooperative launches: a grid-sync program is
        # an error verdict for it, never a correct one.
        layout, records = record_stream(
            replace(program.spec, cooperative=False))
    except (StepLimitExceeded, DeadlockError):
        verdict.hang = True
        return verdict
    except SimulationError as exc:
        verdict.error = str(exc)
        return verdict
    detector = LDetector(layout)
    detector.consume(records)
    verdict.races = len(detector.conflicts)
    verdict.race_spaces = frozenset(c.space for c in detector.conflicts)
    return verdict
