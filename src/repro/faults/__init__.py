"""Deterministic fault injection for the BARRACUDA pipeline.

The pipeline is a chain of lossy-failure-prone stages — instrumented
kernels feeding three-index ring queues (§4.2) into a host detector,
and, in service form, framed captures feeding sharded worker processes.
This package makes those stages breakable *on purpose*:

* :mod:`~repro.faults.plan` — declarative, JSON-loadable
  :class:`FaultPlan`/:class:`FaultSpec` (site + kind + trigger +
  payload);
* :mod:`~repro.faults.injector` — the seeded runtime
  :class:`FaultInjector` consulted at named sites, with the shared
  :data:`NULL_FAULTS` no-op threaded zero-cost through the hot layers;
* :mod:`~repro.faults.sites` — the registry of injection sites and the
  fault kinds each understands.

Entry points: ``repro serve --fault-plan plan.json`` (service-side
faults), ``repro replay --socket --fault-plan`` (wire faults plus retry),
``BarracudaSession(faults=...)`` (queue faults), and the chaos suite in
``tests/test_chaos.py``.
"""

from .injector import (
    ActiveFault,
    FaultEvent,
    FaultInjector,
    NULL_FAULTS,
    NullFaultInjector,
    resolve_faults,
)
from .plan import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    fault_plan_from_json,
    load_fault_plan,
)
from . import sites

__all__ = [
    "ActiveFault",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "NULL_FAULTS",
    "NullFaultInjector",
    "fault_plan_from_json",
    "load_fault_plan",
    "resolve_faults",
    "sites",
]
