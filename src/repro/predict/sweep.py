"""The schedule-sweep driver: explore, predict, confirm.

One sweep over a kernel launch runs three phases:

1. **Base run** — the default fair schedule, with the record stream
   captured; its races are what a plain ``repro check`` reports, and its
   capture feeds the trace-level predictive analysis
   (:func:`repro.predict.analysis.predict_races`).
2. **Schedule exploration** — ``schedules`` seeded runs through the
   :data:`~repro.gpu.scheduler.SWEEP_KINDS` strategies (cycled
   round-robin, one derived seed per run), each under a
   :class:`~repro.gpu.scheduler.RecordingScheduler` so its decision
   trace is kept.
3. **Witness confirmation** — every race a schedule run manifests beyond
   the base run's findings gets a :class:`WitnessSchedule` built from
   that run's recording, which is immediately re-executed through a
   :class:`~repro.gpu.scheduler.ReplayScheduler`; the race is
   *confirmed* when the replay reproduces it.

Races are matched across schedules by an **unordered** key — the
location plus the set of (pc, access-type) endpoints — because the
current/prior roles flip when a schedule flips the access order.

Everything is deterministic in ``(spec, schedules, seed)``: seeds are
derived arithmetically, runs merge sorted by index, and findings sort
under :func:`repro.core.races.race_sort_key`.  The sweep is one
:class:`~repro.jobs.StagedJob` (:data:`JOB`): the local driver, the
inline service and the shard workers all run its stages, so they
produce identical payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.races import (
    RaceReport,
    race_from_payload,
    race_sort_key,
    race_to_payload,
)
from ..errors import ReproError, ScheduleDivergence, SimulationError, StepLimitExceeded
from ..gpu.scheduler import RecordingScheduler, SWEEP_KINDS, make_scheduler
from ..jobs import ARCHES, LaunchSpec, StagedJob, launch_spec  # noqa: F401 - ARCHES re-exported
from ..obs import NULL_OBS, Observability
from ..runtime.session import SessionLaunch
from .analysis import predict_races, predicted_to_report, trace_from_rows
from .witness import WitnessSchedule


def derive_seed(seed: int, index: int) -> int:
    """The per-run seed of sweep run ``index`` under master ``seed``."""
    return (int(seed) * 1_000_003 + index + 1) & 0xFFFFFFFF


def kind_for(index: int) -> str:
    """The scheduler strategy sweep run ``index`` uses (cycled)."""
    return SWEEP_KINDS[index % len(SWEEP_KINDS)]


def race_key(race: RaceReport) -> Tuple[object, FrozenSet[Tuple[int, str]]]:
    """Schedule-insensitive identity of a race.

    The (pc, access) endpoints are an unordered set: which access the
    detector sees first — and therefore which plays ``prior`` — depends
    on the schedule, but the racing pair itself does not.
    """
    return (
        race.loc,
        frozenset(
            (
                (race.current_pc, race.current_access.value),
                (race.prior_pc, race.prior_access.value),
            )
        ),
    )


def run_spec(
    spec: LaunchSpec,
    scheduler=None,
    capture: bool = False,
    obs: Observability = NULL_OBS,
) -> SessionLaunch:
    """Execute one launch of ``spec`` under a fresh session."""
    return launch_spec(spec, scheduler=scheduler, capture=capture, obs=obs).launch


# ----------------------------------------------------------------------
# Individual sweep runs
# ----------------------------------------------------------------------
@dataclass
class SweepRun:
    """One seeded schedule run of a sweep."""

    index: int
    kind: str
    seed: int
    decisions: Tuple[int, ...] = ()
    races: List[RaceReport] = field(default_factory=list)
    barrier_divergences: int = 0
    hung: bool = False
    error: Optional[str] = None

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "seed": self.seed,
            "decisions": list(self.decisions),
            "races": [
                race_to_payload(race)
                for race in sorted(self.races, key=race_sort_key)
            ],
            "barrier_divergences": self.barrier_divergences,
            "hung": self.hung,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepRun":
        try:
            return cls(
                index=int(payload["index"]),
                kind=str(payload["kind"]),
                seed=int(payload["seed"]),
                decisions=tuple(int(d) for d in payload.get("decisions", [])),
                races=[
                    race_from_payload(race)
                    for race in payload.get("races", [])
                ],
                barrier_divergences=int(payload.get("barrier_divergences", 0)),
                hung=bool(payload.get("hung", False)),
                error=payload.get("error"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed sweep run payload: {exc}") from exc

    def summary_payload(self) -> dict:
        """The compact form kept on results (no decisions, race count only)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "seed": self.seed,
            "races": len(self.races),
            "barrier_divergences": self.barrier_divergences,
            "hung": self.hung,
            "error": self.error,
        }


def run_schedule(
    spec: LaunchSpec,
    index: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> SweepRun:
    """Execute sweep run ``index``, recording its decision trace.

    Hangs (a serializing strategy starving a spinning warp) and
    simulation errors are folded into the run result — one pathological
    schedule must not abort the sweep.  ``obs`` reaches the underlying
    session, so a shard worker's always-on registry counts the
    simulator work a sweep run performs on its behalf.
    """
    kind = kind_for(index)
    run_seed = derive_seed(seed, index)
    scheduler = RecordingScheduler(make_scheduler(kind, run_seed))
    run = SweepRun(index=index, kind=kind, seed=run_seed)
    try:
        launch = run_spec(spec, scheduler=scheduler, obs=obs)
    except StepLimitExceeded:
        run.hung = True
        run.decisions = tuple(scheduler.decisions)
        return run
    except (SimulationError, ReproError) as exc:
        run.error = str(exc)
        return run
    run.decisions = tuple(scheduler.decisions)
    run.races = list(launch.races)
    run.barrier_divergences = len(launch.barrier_divergences)
    return run


def replay_witness(
    spec: LaunchSpec,
    witness: WitnessSchedule,
) -> List[RaceReport]:
    """Re-execute a witness schedule; returns the races it reproduces.

    A divergent or hanging replay returns no races (the witness failed
    to confirm) instead of raising — confirmation is a verdict, not a
    control-flow event.
    """
    try:
        launch = run_spec(spec, scheduler=witness.build_scheduler())
    except (ScheduleDivergence, StepLimitExceeded):
        return []
    except (SimulationError, ReproError):
        return []
    return list(launch.races)


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """The merged outcome of one predictive sweep."""

    kernel: str
    schedules: int
    seed: int
    #: Races (and divergence count) of the default-schedule base run.
    base_races: List[RaceReport] = field(default_factory=list)
    base_divergences: int = 0
    #: New findings beyond the base run: trace-level predictions and
    #: schedule-manifested races, deduplicated, each carrying
    #: ``predicted=True`` plus its confirmation status (and witness).
    findings: List[RaceReport] = field(default_factory=list)
    #: Compact per-run summaries, in index order.
    runs: List[dict] = field(default_factory=list)
    #: True when the capture exceeded the analysis op budget.
    truncated: bool = False

    @property
    def confirmed(self) -> List[RaceReport]:
        return [race for race in self.findings if race.confirmed]

    @property
    def unconfirmed(self) -> List[RaceReport]:
        return [race for race in self.findings if not race.confirmed]

    def to_payload(self) -> dict:
        return {
            "kernel": self.kernel,
            "schedules": self.schedules,
            "seed": self.seed,
            "base": {
                "races": [
                    race_to_payload(race)
                    for race in sorted(self.base_races, key=race_sort_key)
                ],
                "barrier_divergences": self.base_divergences,
            },
            "findings": [race_to_payload(race) for race in self.findings],
            "runs": list(self.runs),
            "truncated": self.truncated,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepResult":
        try:
            base = payload.get("base", {})
            return cls(
                kernel=str(payload.get("kernel", "")),
                schedules=int(payload.get("schedules", 0)),
                seed=int(payload.get("seed", 0)),
                base_races=[
                    race_from_payload(race)
                    for race in base.get("races", [])
                ],
                base_divergences=int(base.get("barrier_divergences", 0)),
                findings=[
                    race_from_payload(race)
                    for race in payload.get("findings", [])
                ],
                runs=list(payload.get("runs", [])),
                truncated=bool(payload.get("truncated", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed sweep result payload: {exc}") from exc


def finalize_sweep(
    spec: LaunchSpec,
    runs: Sequence[SweepRun],
    schedules: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> SweepResult:
    """Run the base phase, predict, confirm, and merge deterministically.

    ``runs`` are the completed schedule runs (local loop or service
    fan-out — the merge cannot tell the difference).  Witnesses are
    confirmed here, in run-index order, so the first manifesting run
    deterministically owns each finding's witness.
    """
    with obs.tracer.span("sweep-base", kernel=spec.kernel):
        base_launch = run_spec(spec, capture=True)
    base_races = list(base_launch.races)
    base_keys = {race_key(race) for race in base_races}
    kernel = spec.kernel or base_launch.kernel

    with obs.tracer.span("sweep-predict", kernel=kernel):
        trace = trace_from_rows(base_launch.captured or [], spec.layout())
        prediction = predict_races(trace)

    predicted_by_key: Dict[object, RaceReport] = {}
    for predicted in prediction.predicted:
        report = predicted_to_report(trace, predicted)
        key = race_key(report)
        if key in base_keys or key in predicted_by_key:
            continue
        predicted_by_key[key] = report

    manifested_by_key: Dict[object, RaceReport] = {}
    ordered_runs = sorted(runs, key=lambda run: run.index)
    with obs.tracer.span("sweep-confirm", kernel=kernel):
        for run in ordered_runs:
            if run.hung or run.error or not run.races:
                continue
            witness = WitnessSchedule(
                kind=run.kind,
                seed=run.seed,
                decisions=run.decisions,
                kernel=kernel,
                schedule_index=run.index,
            )
            replayed_keys: Optional[set] = None
            for race in sorted(run.races, key=race_sort_key):
                key = race_key(race)
                if key in base_keys or key in manifested_by_key:
                    continue
                if replayed_keys is None:
                    replayed_keys = {
                        race_key(r)
                        for r in replay_witness(spec, witness)
                    }
                manifested_by_key[key] = replace(
                    race,
                    predicted=True,
                    confirmed=key in replayed_keys,
                    witness=witness,
                )

    merged: Dict[object, RaceReport] = dict(predicted_by_key)
    merged.update(manifested_by_key)  # a manifested finding wins its key
    findings = sorted(merged.values(), key=race_sort_key)

    if obs.metrics.enabled:
        obs.metrics.counter(
            "repro_sweep_schedules_total",
            "Seeded schedule runs executed by the sweep driver",
        ).inc(len(ordered_runs))
        obs.metrics.counter(
            "repro_predicted_races_total",
            "Predictive findings beyond the base schedule, by status",
            ("status",),
        ).inc(len([r for r in findings if r.confirmed]), status="confirmed")
        obs.metrics.counter(
            "repro_predicted_races_total",
            "Predictive findings beyond the base schedule, by status",
            ("status",),
        ).inc(len([r for r in findings if not r.confirmed]), status="unconfirmed")
        obs.metrics.counter(
            "repro_witness_confirmed_total",
            "Predicted races a witness schedule deterministically reproduced",
        ).inc(len([r for r in findings if r.confirmed]))

    return SweepResult(
        kernel=kernel,
        schedules=schedules,
        seed=seed,
        base_races=base_races,
        base_divergences=len(base_launch.barrier_divergences),
        findings=findings,
        runs=[run.summary_payload() for run in ordered_runs],
        truncated=prediction.truncated,
    )


# ----------------------------------------------------------------------
# The sweep as a staged job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRequest:
    """One sweep request, as argv or a ``SWEEP`` frame states it."""

    spec: LaunchSpec
    schedules: int = field(default=0, metadata={"min": 1})
    seed: int = 0


def _run_item(request: SweepRequest, _plan: dict, index: int,
              obs: Observability) -> dict:
    return run_schedule(request.spec, index, request.seed, obs=obs).to_payload()


def _failed_run(request: SweepRequest, _plan: dict, index: int,
                reason: str) -> dict:
    return SweepRun(
        index=index,
        kind=kind_for(index),
        seed=derive_seed(request.seed, index),
        error=f"schedule run failed: {reason}",
    ).to_payload()


def _finalize_stage(request: SweepRequest, _plan: dict,
                            items: Sequence[dict], obs: Observability) -> dict:
    runs = [SweepRun.from_payload(item) for item in items]
    return finalize_sweep(
        request.spec, runs, request.schedules, request.seed, obs=obs
    ).to_payload()


#: Items are schedule indices (run ``index`` lands on shard ``index %
#: shards``); base run, prediction, witness replay and merge finalize.
JOB = StagedJob(
    name="sweep",
    request=SweepRequest,
    item_stage="run",
    count=lambda request, _plan: request.schedules,
    item=_run_item,
    failed_item=_failed_run,
    finalize=_finalize_stage,
    watchdog_scale=lambda request: request.schedules,
)


def run_sweep(
    spec: LaunchSpec,
    schedules: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> SweepResult:
    """The local sweep driver: every stage of :data:`JOB`, in this process."""
    return SweepResult.from_payload(
        JOB.run(SweepRequest(spec, schedules, seed), obs)
    )
