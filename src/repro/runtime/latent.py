"""Latent-race hunting by simulating other warp sizes (paper §3.1).

The paper: "the actual size of a warp can change across architectures,
so portable CUDA code should eschew assumptions about warp size ...
BARRACUDA's dynamic analysis checks for races based on the warp size of
the current architecture, though in future we could simulate the
behavior of smaller/larger warps to find additional latent bugs."

This module implements that future-work idea.  Because the execution
substrate here is a simulator, the warp width is just a launch
parameter: running the same kernel at progressively narrower widths
breaks exactly the implicit-lockstep assumptions ("warp-synchronous
programming") that make code correct on one architecture and racy on
the next.  The classic victim is the barrier-free reduction tail::

    if (tid < 16) { s[tid] += s[tid + 16]; }   // fine at warp 32,
                                               // a race at warp 16

:func:`find_latent_races` runs detection at several widths and reports,
per width, the races that a narrower warp exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..core.races import RaceReport

if TYPE_CHECKING:
    from ..jobs import LaunchSpec


@dataclass(frozen=True)
class WarpSizeFinding:
    """Detection results at one simulated warp width."""

    warp_size: int
    races: Tuple[RaceReport, ...]

    @property
    def racy_locations(self) -> frozenset:
        return frozenset(race.loc for race in self.races)


@dataclass
class LatentRaceReport:
    """The cross-width comparison."""

    findings: List[WarpSizeFinding] = field(default_factory=list)

    def at(self, warp_size: int) -> WarpSizeFinding:
        for finding in self.findings:
            if finding.warp_size == warp_size:
                return finding
        raise KeyError(warp_size)

    @property
    def baseline(self) -> WarpSizeFinding:
        """The widest (hardware) warp's findings."""
        return max(self.findings, key=lambda f: f.warp_size)

    def latent_locations(self) -> Dict[int, frozenset]:
        """Locations racy at a narrower width but clean at the baseline —
        the latent warp-synchronous bugs."""
        base = self.baseline.racy_locations
        return {
            finding.warp_size: finding.racy_locations - base
            for finding in self.findings
            if finding.warp_size != self.baseline.warp_size
            and finding.racy_locations - base
        }

    @property
    def has_latent_races(self) -> bool:
        return bool(self.latent_locations())


def find_latent_races(
    spec: LaunchSpec, warp_sizes: Sequence[int] = (32, 16, 8)
) -> LatentRaceReport:
    """Run race detection on ``spec`` at several simulated warp widths,
    widest first.

    Each width is one :func:`repro.jobs.launch_spec` of ``spec`` with its
    ``warp_size`` replaced: a fresh session, device and buffers, so the
    runs are independent.
    """
    # Not at module level: ``repro.jobs`` imports ``runtime.session``.
    from ..jobs import launch_spec

    report = LatentRaceReport()
    for warp_size in sorted(warp_sizes, reverse=True):
        launched = launch_spec(replace(spec, warp_size=warp_size))
        report.findings.append(
            WarpSizeFinding(warp_size=warp_size, races=tuple(launched.launch.races))
        )
    return report
