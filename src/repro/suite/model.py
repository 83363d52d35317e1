"""The concurrency bug suite framework (paper §6.1).

The paper validates BARRACUDA against a hand-built suite of 66 small CUDA
programs covering "subtle data races or race-free behavior via global
memory, shared memory, within and across warps and blocks, and using a
variety of atomic and memory fence instructions to implement locks,
whole-grid barriers and flag synchronization".  Our suite keeps those 66
and extends them with modern-idiom families the paper predates: warp
shuffle/vote exchanges, ``cp.async`` tile pipelines, and cooperative
grid-wide synchronization.

Each :class:`SuiteProgram` is one kernel file of ``repro/corpus/``
(:func:`repro.jobs.load_corpus`): its source (mini CUDA-C, or PTX for
the cases that need instruction-level control such as predication)
after a header of ``repro check`` launch flags and labels, the expected
verdict among them.  The runner executes a program under a full
:class:`BarracudaSession` and reduces the reports to a :class:`Verdict`
for comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Tuple

from ..errors import SimulationError, StepLimitExceeded
from ..gpu.scheduler import Scheduler
from ..jobs import Buffer, LaunchSpec, launch_spec
from ..ptx.ast import Module
from ..runtime.session import BarracudaSession


class Expected(enum.Enum):
    """The ground-truth verdict of a suite program."""

    RACE = "race"
    NO_RACE = "no-race"
    BARRIER_DIVERGENCE = "barrier-divergence"


def _rule_names(value: str) -> Tuple[str, ...]:
    """A header's comma-separated lint rule names."""
    return tuple(name.strip() for name in value.split(",") if name.strip())


@dataclass(frozen=True)
class SuiteProgram:
    """One concurrency-suite test case (one ``corpus/suite`` or
    ``corpus/schedule`` file)."""

    #: Corpus header key -> (field, parse of the value).
    LABELS: ClassVar[dict] = {
        "expect": ("expected", Expected),
        "race-space": ("race_space", str),
        "category": ("category", str),
        "description": ("description", str),
        "lint": ("expected_lint", _rule_names),
        "lint-exceptions": ("lint_exceptions", _rule_names),
    }

    name: str
    category: str
    description: str
    source: str
    expected: Expected
    #: Memory space the expected race lives in ("global"/"shared"), for
    #: the Table 1-style classification; None for race-free programs.
    race_space: Optional[str] = None
    is_ptx: bool = False
    grid: int = 2
    block: int = 64
    warp_size: int = 32
    buffers: Tuple[Buffer, ...] = ()
    scalars: Tuple[Tuple[str, int], ...] = ()
    max_steps: int = 400_000
    #: Lint rules (:mod:`repro.staticcheck`) this program is expected to
    #: fire.  For racy/divergent programs the test asserts these are a
    #: *subset* of what fires (extra findings are legitimate: one bad
    #: program often exhibits several defects).  Empty on a racy program
    #: documents a known static miss (see docs/static-analysis.md).
    expected_lint: Tuple[str, ...] = ()
    #: Rules tolerated on a race-free program (documented false alarms).
    #: The suite test asserts everything fired is listed here.
    lint_exceptions: Tuple[str, ...] = ()
    #: Memory-model profile to simulate ("titanx" or "k520"); the
    #: schedule-sensitive weak-memory programs need the relaxed profile.
    arch: str = "titanx"
    #: Launch cooperatively (cudaLaunchCooperativeKernel): required by
    #: programs using ``barrier.cluster`` / ``__grid_sync()``.
    cooperative: bool = False

    @cached_property
    def spec(self) -> LaunchSpec:
        """This program's launch, as the one runner takes it."""
        return LaunchSpec.from_program(self)

    def compile(self) -> Module:
        return self.spec.compile()


@dataclass
class Verdict:
    """What one detector concluded about one program."""

    program: str
    races: int = 0
    race_spaces: frozenset = frozenset()
    barrier_divergences: int = 0
    hang: bool = False
    error: Optional[str] = None

    @property
    def observed(self) -> Expected:
        if self.barrier_divergences:
            return Expected.BARRIER_DIVERGENCE
        if self.races:
            return Expected.RACE
        return Expected.NO_RACE

    def matches(self, program: SuiteProgram) -> bool:
        """Did the detector report correctly for this program?

        A hang or internal error is never correct.  For racy programs the
        detector must flag a race in the expected memory space; for
        race-free programs it must stay silent (a barrier-divergence
        report on a clean program is a false alarm).
        """
        if self.hang or self.error:
            return False
        if program.expected is Expected.BARRIER_DIVERGENCE:
            return self.barrier_divergences > 0
        if program.expected is Expected.RACE:
            if self.races == 0:
                return False
            if program.race_space is not None:
                return program.race_space in self.race_spaces
            return True
        return self.races == 0 and self.barrier_divergences == 0


def run_program(
    program: SuiteProgram,
    session: Optional[BarracudaSession] = None,
    scheduler: Optional[Scheduler] = None,
) -> Verdict:
    """Run one suite program under BARRACUDA and summarize the verdict."""
    verdict = Verdict(program=program.name)
    try:
        launch = launch_spec(program.spec, scheduler=scheduler,
                             session=session).launch
    except StepLimitExceeded:
        verdict.hang = True
        return verdict
    except SimulationError as exc:
        verdict.error = str(exc)
        return verdict
    verdict.races = len(launch.races)
    verdict.race_spaces = frozenset(r.loc.space.value for r in launch.races)
    verdict.barrier_divergences = len(launch.barrier_divergences)
    return verdict
