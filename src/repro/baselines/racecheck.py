"""A CUDA-Racecheck-style baseline detector (paper §6.1).

Nvidia's Racecheck (the cuda-memcheck race tool) differs from BARRACUDA
in exactly the ways the paper's comparison exposes, and this model
reproduces those differences mechanically:

* **shared memory only** — hazards on global memory are invisible, so
  every global-memory race in the suite is missed;
* **barrier-interval hazard analysis** — two accesses to one shared
  location by different threads in the same ``__syncthreads`` interval
  with at least one write are a hazard.  There is no notion of warp
  lockstep ordering, so cross-lane communication between consecutive
  warp instructions is reported as a hazard even though it is perfectly
  synchronized ("reporting races where there are none, with intra-warp
  synchronization");
* **same-value write-write hazards are informational** — mirroring the
  tool's INFO severity for WAW hazards that store identical bytes;
* **no fence/atomic synchronization model** — acquire/release idioms are
  just loads/stores/atomics to it;
* **serialized scheduling** — the tool's instrumentation runs warps to
  completion in order.  A warp spinning on a flag or lock that a
  *later* warp must set therefore never yields, which is how we model
  Racecheck "even hanging on the tests involving spinlocks".

Like the real tool it detects no barrier-divergence errors (that is
synccheck's job, a separate tool).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DeadlockError, SimulationError, StepLimitExceeded
from ..events import LogRecord, RecordKind
from ..gpu.scheduler import WarpSerializingScheduler
from ..jobs import record_stream
from ..suite.model import SuiteProgram, Verdict
from ..trace.layout import GridLayout
from ..trace.operations import Space

#: Step budget under the serializing scheduler before declaring a hang.
HANG_STEPS = 60_000


@dataclass(frozen=True)
class Hazard:
    """One reported shared-memory hazard."""

    block: int
    offset: int
    first_tid: int
    second_tid: int
    kind: str  # "RAW", "WAR", "WAW"

    def __str__(self) -> str:
        return (
            f"{self.kind} hazard on shared[b{self.block}][{self.offset:#x}]: "
            f"t{self.first_tid} vs t{self.second_tid}"
        )


@dataclass
class _Access:
    tid: int
    is_write: bool
    is_atomic: bool
    value: Optional[int]


class RacecheckDetector:
    """Barrier-interval hazard analysis over the instrumentation events."""

    #: Record kinds treated as writes (Racecheck has no sync semantics,
    #: so releases are just stores and acquire-atomics just atomics).
    _WRITES = {RecordKind.STORE, RecordKind.RELEASE}
    _ATOMICS = {RecordKind.ATOMIC, RecordKind.ACQREL}

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.hazards: List[Hazard] = []
        # (block, offset) -> accesses in the current barrier interval.
        self._accesses: Dict[Tuple[int, int], List[_Access]] = {}
        self._seen: Set[Tuple[int, int, int, int]] = set()

    def consume(self, records) -> None:
        for record in records:
            self._consume_one(record)

    def _consume_one(self, record: LogRecord) -> None:
        if record.kind is RecordKind.BARRIER:
            # A new interval for this block: forget its accesses.
            block = record.warp
            for key in [k for k in self._accesses if k[0] == block]:
                del self._accesses[key]
            return
        if record.kind in (
            RecordKind.BRANCH_IF,
            RecordKind.BRANCH_ELSE,
            RecordKind.BRANCH_FI,
        ):
            return
        is_write = record.kind in self._WRITES
        is_atomic = record.kind in self._ATOMICS
        for tid in sorted(record.active):
            space, offset = record.addrs[tid]
            if space is not Space.SHARED:
                continue  # global memory is invisible to Racecheck
            block = self.layout.block_of(tid)
            key = (block, offset)
            access = _Access(
                tid=tid,
                is_write=is_write or is_atomic,
                is_atomic=is_atomic,
                value=record.values.get(tid),
            )
            for prior in self._accesses.setdefault(key, []):
                self._check(key, prior, access)
            self._accesses[key].append(access)

    def _check(self, key: Tuple[int, int], prior: _Access, access: _Access) -> None:
        if prior.tid == access.tid:
            return
        if not (prior.is_write or access.is_write):
            return
        if prior.is_atomic and access.is_atomic:
            return
        if (
            prior.is_write
            and access.is_write
            and prior.value is not None
            and prior.value == access.value
        ):
            return  # same-value WAW: INFO severity, not an error
        if prior.is_write and access.is_write:
            kind = "WAW"
        elif prior.is_write:
            kind = "RAW"
        else:
            kind = "WAR"
        signature = (key[0], key[1], min(prior.tid, access.tid), max(prior.tid, access.tid))
        if signature in self._seen:
            return
        self._seen.add(signature)
        self.hazards.append(
            Hazard(
                block=key[0],
                offset=key[1],
                first_tid=prior.tid,
                second_tid=access.tid,
                kind=kind,
            )
        )


def run_racecheck(program: SuiteProgram) -> Verdict:
    """Run one suite program under the Racecheck model."""
    verdict = Verdict(program=program.name)
    try:
        # Like LDetector, the tool predates cooperative launches.
        layout, records = record_stream(
            replace(program.spec, max_steps=HANG_STEPS, cooperative=False),
            scheduler=WarpSerializingScheduler(),
        )
    except (StepLimitExceeded, DeadlockError):
        verdict.hang = True
        return verdict
    except SimulationError as exc:
        verdict.error = str(exc)
        return verdict
    detector = RacecheckDetector(layout)
    detector.consume(records)
    verdict.races = len(detector.hazards)
    verdict.race_spaces = frozenset({"shared"} if detector.hazards else set())
    return verdict
