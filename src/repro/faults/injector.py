"""The runtime half of fault injection: deciding *now* whether to break.

A :class:`FaultInjector` holds one :class:`~repro.faults.plan.FaultPlan`
plus the mutable trigger state (per-site hit counters, per-site byte
counters, per-spec firing budgets and seeded generators).  Instrumented
layers call :meth:`FaultInjector.check` at each named site; a ``None``
return means "proceed normally", anything else is an
:class:`ActiveFault` the layer must act on.

The zero-cost contract mirrors ``repro.obs``: every instrumented layer
accepts ``faults=NULL_FAULTS`` and pre-resolves it to ``None`` when
disabled, so the production hot path pays one is-None check and no
attribute traffic.  :data:`NULL_FAULTS` is the shared permanently-
disabled injector.

Determinism: probability triggers draw from ``random.Random`` seeded
with ``plan.seed`` and the spec's index, and hit counters advance only
on :meth:`check` calls, so the same plan over the same workload injects
the same faults — which is what makes chaos runs replayable from a CI
seed.

Every injected fault is appended to :attr:`FaultInjector.log`, counted
on the ``repro_faults_injected_total`` metric, and stamped as a trace
instant when observability is enabled, so a chaos run can always answer
"what did you actually break?".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..obs import NULL_OBS, Observability
from .plan import FaultPlan, FaultSpec


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the injector's debug log entry)."""

    site: str
    kind: str
    #: The site-local hit number at which the fault fired (1-based).
    hit: int
    spec_index: int
    payload: Mapping[str, Any] = field(default_factory=dict)


class ActiveFault:
    """What :meth:`FaultInjector.check` hands the instrumented layer."""

    __slots__ = ("spec", "event")

    def __init__(self, spec: FaultSpec, event: FaultEvent) -> None:
        self.spec = spec
        self.event = event

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def payload(self) -> Mapping[str, Any]:
        return self.spec.payload

    def arg(self, key: str, default: Any = None) -> Any:
        return self.spec.payload.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ActiveFault({self.spec.kind!r} at {self.spec.site!r} "
                f"hit {self.event.hit})")


class FaultInjector:
    """Evaluates a fault plan's triggers against live site traffic."""

    enabled = True

    def __init__(self, plan: FaultPlan, obs: Observability = NULL_OBS,
                 flight=None) -> None:
        self.plan = plan
        self._hits: Dict[str, int] = {}
        self._bytes: Dict[str, int] = {}
        # Per-spec: remaining firings (None = unlimited) and seeded RNG.
        self._remaining: List[Optional[int]] = [
            (spec.times if spec.times > 0 else None) for spec in plan.specs
        ]
        self._rngs: List[random.Random] = [
            random.Random(plan.seed * 1_000_003 + index)
            for index in range(len(plan.specs))
        ]
        self._by_site: Dict[str, Tuple[int, ...]] = {}
        for index, spec in enumerate(plan.specs):
            self._by_site[spec.site] = self._by_site.get(spec.site, ()) + (index,)
        self.log: List[FaultEvent] = []
        self._tracer = obs.tracer
        # The optional FlightRecorder ring resolves to None when disabled
        # so _fired stays an is-None check.
        self._flight = flight if flight is not None and flight.enabled else None
        self._counter = None
        if obs.metrics.enabled:
            self._counter = obs.metrics.counter(
                "repro_faults_injected_total",
                "Faults injected by the active fault plan",
                ("site", "kind"),
            )

    # ------------------------------------------------------------------
    # The per-site hook
    # ------------------------------------------------------------------
    def check(self, site: str, nbytes: int = 0) -> Optional[ActiveFault]:
        """Register one hit of ``site``; return the fault to inject, if any."""
        hits = self._hits.get(site, 0) + 1
        self._hits[site] = hits
        if nbytes:
            self._bytes[site] = self._bytes.get(site, 0) + nbytes
        for index in self._by_site.get(site, ()):
            remaining = self._remaining[index]
            if remaining == 0:
                continue
            spec = self.plan.specs[index]
            if spec.nth is not None:
                fire = hits == spec.nth or (
                    spec.times != 1 and hits > spec.nth)
            elif spec.probability is not None:
                fire = self._rngs[index].random() < spec.probability
            else:  # after_bytes
                fire = self._bytes.get(site, 0) >= spec.after_bytes
            if not fire:
                continue
            if remaining is not None:
                self._remaining[index] = remaining - 1
            return self._fired(spec, index, hits)
        return None

    def _fired(self, spec: FaultSpec, index: int, hits: int) -> ActiveFault:
        event = FaultEvent(site=spec.site, kind=spec.kind, hit=hits,
                           spec_index=index, payload=dict(spec.payload))
        self.log.append(event)
        if self._counter is not None:
            self._counter.inc(site=spec.site, kind=spec.kind)
        self._tracer.instant(f"fault:{spec.kind}", site=spec.site, hit=hits)
        if self._flight is not None:
            self._flight.record("fault-injected", site=spec.site,
                                fault=spec.kind, hit=hits)
        return ActiveFault(spec, event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hits(self, site: str) -> int:
        return self._hits.get(site, 0)

    @property
    def faults_injected(self) -> int:
        return len(self.log)

    def summary(self) -> Dict[str, int]:
        """``{"site kind": count}`` across everything injected so far."""
        out: Dict[str, int] = {}
        for event in self.log:
            key = f"{event.site} {event.kind}"
            out[key] = out.get(key, 0) + 1
        return out


class NullFaultInjector:
    """Permanently-disabled injector; the default everywhere."""

    enabled = False
    log: Tuple[FaultEvent, ...] = ()
    faults_injected = 0

    def check(self, site: str, nbytes: int = 0) -> None:
        return None

    def hits(self, site: str) -> int:
        return 0

    def summary(self) -> Dict[str, int]:
        return {}


#: The shared disabled injector (the ``NULL_OBS`` of fault injection).
NULL_FAULTS = NullFaultInjector()


def resolve_faults(faults):
    """Pre-resolve the hot-path handle: ``None`` unless genuinely enabled.

    Accepts a :class:`FaultPlan` as a convenience and wraps it in a
    fresh injector; anything disabled (``None``, :data:`NULL_FAULTS`)
    resolves to ``None`` so instrumented layers pay one is-None check.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    if not faults.enabled:
        return None
    return faults
