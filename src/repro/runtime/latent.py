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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.races import RaceReport
from ..ptx.ast import Module
from .session import BarracudaSession


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
    module: Module,
    kernel: str,
    grid,
    block,
    params: Optional[Dict[str, int]] = None,
    warp_sizes: Sequence[int] = (32, 16, 8),
    buffer_images: Optional[Dict[int, List[int]]] = None,
    max_steps: int = 2_000_000,
) -> LatentRaceReport:
    """Run race detection at several simulated warp widths.

    Each width gets a fresh session and device so runs are independent;
    ``buffer_images`` maps device addresses (as allocated by the caller
    against a fresh device — addresses are deterministic) to initial
    contents, re-applied per run.

    The common calling pattern allocates via :func:`allocate_like` so the
    same parameter dict works across sessions.
    """
    report = LatentRaceReport()
    for warp_size in sorted(warp_sizes, reverse=True):
        session = BarracudaSession()
        session.register_module(module)
        if buffer_images:
            for addr, values in buffer_images.items():
                # Reserve identically-placed allocations on this device.
                session.device.global_mem.alloc(len(values) * 4)
                session.device.memcpy_to_device(addr, values)
        launch = session.launch(
            kernel,
            grid=grid,
            block=block,
            warp_size=warp_size,
            params=params or {},
            max_steps=max_steps,
        )
        report.findings.append(
            WarpSizeFinding(warp_size=warp_size, races=tuple(launch.races))
        )
    return report


def allocate_like(buffers: Dict[str, List[int]], module: Optional[Module] = None):
    """Plan deterministic allocations for :func:`find_latent_races`.

    Returns ``(params, images)``: parameter addresses computed against a
    scratch device (the bump allocator is deterministic, so the same
    addresses are valid on every fresh device) and the address→contents
    map to re-apply per run.

    Pass the module when it declares ``__device__`` arrays: those are
    allocated at registration time, before the buffers, and the scratch
    plan must account for them or the buffer addresses would collide
    with the module globals on the real devices.
    """
    from ..gpu.device import GpuDevice

    scratch = GpuDevice()
    if module is not None:
        # Mirror registration: the instrumented module carries the same
        # .global declarations, so loading the pristine one reserves
        # identical addresses.
        scratch.load_module(module)
    params: Dict[str, int] = {}
    images: Dict[int, List[int]] = {}
    for name, values in buffers.items():
        addr = scratch.alloc(len(values) * 4)
        params[name] = addr
        images[addr] = list(values)
    return params, images
