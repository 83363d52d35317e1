"""Workload definitions for the paper's benchmark table (Table 1).

Each :class:`Workload` is a laptop-scale stand-in for one of the paper's
26 benchmarks, one kernel file of ``repro/corpus/table1`` whose header
holds its launch flags and Table 1 labels (:func:`repro.jobs.load_corpus`),
written in mini CUDA-C (or PTX) to use the same
synchronization idioms — tiled shared-memory phases with barriers,
atomic work distribution, fence-based publication, fine-grained locks —
and seeded with the same *kind* of races the paper reports for it
(column 5 of Table 1).  Grid sizes are scaled down so a Python-level
simulation finishes in seconds; thread counts and instruction counts are
reported as measured on our stand-ins, and EXPERIMENTS.md compares the
shapes against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Tuple

from ..gpu.device import DEFAULT_MAX_STEPS
from ..jobs import Buffer, LaunchSpec, launch_spec
from ..ptx.ast import Module
from ..runtime.session import BarracudaSession, SessionLaunch


@dataclass(frozen=True)
class Workload:
    """One Table 1 benchmark stand-in (one ``corpus/table1`` file)."""

    #: Corpus header key -> (field, parse of the value).
    LABELS: ClassVar[dict] = {
        "suite": ("suite", str),
        "description": ("description", str),
        "race-space": ("expected_race_space", str),
        "paper-races": ("paper_races", int),
        "paper-static-insns": ("paper_static_insns", int),
        "paper-threads": ("paper_threads", int),
    }

    name: str
    suite: str  # Rodinia 3.1 / GPU-TM / SHOC / CUDA SDK / CUB
    description: str
    source: str
    is_ptx: bool = False
    grid: int = 4
    block: int = 64
    warp_size: int = 32
    buffers: Tuple[Buffer, ...] = ()
    scalars: Tuple[Tuple[str, int], ...] = ()
    #: Space of the races the paper reports for this benchmark (column 5
    #: of Table 1); None for benchmarks with no reported races.
    expected_race_space: Optional[str] = None
    #: Races the paper found (0 when column 5 is empty).
    paper_races: int = 0
    paper_static_insns: int = 0
    paper_threads: int = 0
    max_steps: int = DEFAULT_MAX_STEPS

    @cached_property
    def spec(self) -> LaunchSpec:
        """This workload's launch, as the one runner takes it."""
        return LaunchSpec.from_program(self)

    def compile(self) -> Module:
        return self.spec.compile()

    @property
    def total_threads(self) -> int:
        return self.grid * self.block


@dataclass
class WorkloadResult:
    """Measurements from one monitored workload run."""

    workload: Workload
    launch: SessionLaunch
    static_insns: int
    global_mem_bytes: int

    @property
    def races(self) -> int:
        return len(self.launch.races)

    @property
    def race_spaces(self):
        return sorted({r.loc.space.value for r in self.launch.races})


def run_workload(
    workload: Workload,
    session: Optional[BarracudaSession] = None,
    compare_native: bool = True,
) -> WorkloadResult:
    """Run one workload under a full BARRACUDA session."""
    launched = launch_spec(workload.spec, session=session,
                           compare_native=compare_native)
    return WorkloadResult(
        workload=workload,
        launch=launched.launch,
        static_insns=launched.module.static_instruction_count(),
        global_mem_bytes=launched.session.device.global_mem.allocated_bytes,
    )
