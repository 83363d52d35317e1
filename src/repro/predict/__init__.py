"""Predictive race detection: relaxed-order analysis, schedule sweeps,
and replay-confirmed witness schedules.

Three cooperating layers on top of the BARRACUDA pipeline:

* :mod:`repro.predict.analysis` — relax the synchronization order of a
  captured trace within legally-reschedulable bounds and report access
  pairs that *could* race under a different schedule;
* :mod:`repro.predict.sweep` — drive N seeded schedule-exploration runs
  (:data:`repro.gpu.scheduler.SWEEP_KINDS`) and merge their findings
  deterministically;
* :mod:`repro.predict.witness` — serialize each finding's schedule as a
  replayable :class:`WitnessSchedule` and confirm it via
  :class:`repro.gpu.scheduler.ReplayScheduler`.
"""

from .analysis import (
    DEFAULT_MAX_OPS,
    PredictedRace,
    PredictionResult,
    predict_races,
    predicted_to_report,
    trace_from_rows,
)
from .sweep import (
    ARCHES,
    LaunchSpec,
    SweepResult,
    SweepRun,
    derive_seed,
    finalize_sweep,
    kind_for,
    race_key,
    replay_witness,
    run_schedule,
    run_spec,
    run_sweep,
)
from .witness import WitnessSchedule

__all__ = [
    "ARCHES",
    "DEFAULT_MAX_OPS",
    "LaunchSpec",
    "PredictedRace",
    "PredictionResult",
    "SweepResult",
    "SweepRun",
    "WitnessSchedule",
    "derive_seed",
    "finalize_sweep",
    "kind_for",
    "predict_races",
    "predicted_to_report",
    "race_key",
    "replay_witness",
    "run_schedule",
    "run_spec",
    "run_sweep",
    "trace_from_rows",
]
