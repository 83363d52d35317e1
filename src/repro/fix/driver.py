"""The repair driver: plan → verify each candidate → finalize.

Three pure stages, stated once as the :class:`~repro.jobs.StagedJob`
:data:`JOB` that the local ``repro fix`` path and the service's ``FIX``
verb (which fans stage two across the sharded pool) both run:
:func:`plan_fix` computes the baseline and synthesizes candidate
payloads, :func:`~repro.fix.verify.verify_candidate_payload` re-runs the
pipeline over one candidate, and :func:`finalize_fix` merges
verification payloads into a deterministic, byte-stable
:class:`FixResult` ranked by static instruction-count delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.races import race_from_payload
from ..errors import ReproError
from ..jobs import LaunchSpec, StagedJob
from ..obs import NULL_OBS, Observability
from ..ptx import parse_ptx
from ..staticcheck import run_lint
from .synthesize import synthesize_candidates
from .verify import (
    STATUS_ERROR,
    STATUS_VERIFIED,
    compute_baseline,
    verify_candidate_payload,
)

#: The ranking: fewest added instructions first, then strategy name,
#: then the repaired line, then synthesis order.
def _rank_key(verification: dict):
    return (
        verification.get("delta", 0),
        verification.get("strategy", ""),
        verification.get("anchor_line", 0),
        verification.get("index", 0),
    )


@dataclass
class FixResult:
    """The merged outcome of one repair run."""

    kernel: str
    schedules: int
    seed: int
    source: str = ""
    races: List[dict] = field(default_factory=list)
    confirmed: List[dict] = field(default_factory=list)
    targets: List[dict] = field(default_factory=list)
    candidates: List[dict] = field(default_factory=list)
    #: Indices into ``candidates`` of the verified survivors, ranked.
    verified: List[int] = field(default_factory=list)
    status_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def verified_candidates(self) -> List[dict]:
        by_index = {c["index"]: c for c in self.candidates}
        return [by_index[i] for i in self.verified if i in by_index]

    @property
    def repaired_all(self) -> bool:
        """Does every race group have at least one verified patch?"""
        return bool(self.targets) and all(t["repaired"] for t in self.targets)

    def to_payload(self) -> dict:
        return {
            "kernel": self.kernel,
            "schedules": self.schedules,
            "seed": self.seed,
            "source": self.source,
            "races": self.races,
            "confirmed": self.confirmed,
            "targets": self.targets,
            "candidates": self.candidates,
            "verified": self.verified,
            "status_counts": self.status_counts,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FixResult":
        try:
            return cls(
                kernel=str(payload["kernel"]),
                schedules=int(payload["schedules"]),
                seed=int(payload["seed"]),
                source=str(payload.get("source", "")),
                races=list(payload.get("races", [])),
                confirmed=list(payload.get("confirmed", [])),
                targets=list(payload.get("targets", [])),
                candidates=list(payload.get("candidates", [])),
                verified=[int(i) for i in payload.get("verified", [])],
                status_counts=dict(payload.get("status_counts", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed fix result payload: {exc}") from exc


def plan_fix(
    spec: LaunchSpec,
    max_candidates: int,
    verify_schedules: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> dict:
    """Stage one: baseline behavior plus synthesized candidate payloads.

    Repair targets are the base-schedule races plus every
    replay-confirmed predictive finding — a schedule-dependent race is
    as much a defect as a deterministic one."""
    baseline = compute_baseline(spec, verify_schedules, seed, obs=obs)
    module = parse_ptx(baseline["source"])
    races = [
        race_from_payload(p)
        for p in baseline["races"] + baseline["confirmed"]
    ]
    findings = run_lint(module)
    candidates = synthesize_candidates(
        module, baseline["kernel"], races, findings, max_candidates
    )
    return {"baseline": baseline, "candidates": candidates}


def finalize_fix(
    baseline: dict,
    candidates: List[dict],
    verifications: List[dict],
    verify_schedules: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> dict:
    """Stage three: deterministic merge, ranking and target coverage."""
    ordered = sorted(verifications, key=lambda v: v.get("index", 0))
    status_counts: Dict[str, int] = {}
    for verification in ordered:
        status = str(verification.get("status", "error"))
        status_counts[status] = status_counts.get(status, 0) + 1
    if obs.metrics.enabled:
        counter = obs.metrics.counter(
            "repro_fix_candidates_total",
            "Repair candidates by verification status",
            ("status",),
        )
        for status, count in sorted(status_counts.items()):
            counter.inc(count, status=status)

    verified = sorted(
        (v for v in ordered if v.get("status") == STATUS_VERIFIED),
        key=_rank_key,
    )
    verified_indices = [int(v["index"]) for v in verified]

    target_keys: List[list] = []
    seen = set()
    for candidate in candidates:
        for key in candidate.get("targets", []):
            frozen = tuple(key[:3]) + (tuple(key[3]),)
            if frozen not in seen:
                seen.add(frozen)
                target_keys.append(key)
    targets = []
    for key in sorted(target_keys):
        best: Optional[int] = None
        for verification in verified:
            if key in verification.get("targets", []):
                best = int(verification["index"])
                break
        targets.append({
            "key": key,
            "repaired": best is not None,
            "best": best,
        })

    result = FixResult(
        kernel=str(baseline.get("kernel", "")),
        schedules=int(verify_schedules),
        seed=int(seed),
        source=str(baseline.get("source", "")),
        races=list(baseline.get("races", [])),
        confirmed=list(baseline.get("confirmed", [])),
        targets=targets,
        candidates=ordered,
        verified=verified_indices,
        status_counts=status_counts,
    )
    return result.to_payload()


# ----------------------------------------------------------------------
# The repair as a staged job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FixRequest:
    """One repair request, as argv or a ``FIX`` frame states it."""

    spec: LaunchSpec
    max_candidates: int = field(default=16, metadata={"min": 1})
    verify_schedules: int = field(default=0, metadata={"min": 1})
    seed: int = 0


def _plan_stage(request: FixRequest, obs: Observability) -> dict:
    return plan_fix(request.spec, request.max_candidates,
                    request.verify_schedules, request.seed, obs=obs)


def _verify_item(request: FixRequest, plan: dict, index: int,
                 obs: Observability) -> dict:
    return verify_candidate_payload(
        request.spec, plan["baseline"], plan["candidates"][index], index,
        request.verify_schedules, request.seed, obs=obs)


def _failed_verify(_request: FixRequest, plan: dict, index: int,
                   reason: str) -> dict:
    candidate = plan["candidates"][index]
    patch = candidate.get("patch", {})
    return {
        "index": index,
        "strategy": str(patch.get("strategy", "")),
        "description": str(patch.get("description", "")),
        "rule": str(candidate.get("rule", "")),
        "targets": list(candidate.get("targets", [])),
        "delta": 0,
        "anchor_line": int(patch.get("anchor_line", 0)),
        "status": STATUS_ERROR,
        "detail": f"verification failed: {reason}",
    }


def _finalize_stage(request: FixRequest, plan: dict, items: List[dict],
                    obs: Observability) -> dict:
    return finalize_fix(plan["baseline"], plan["candidates"], items,
                        request.verify_schedules, request.seed, obs=obs)


#: Planning and the finalize merge run once (shard 0 on a service);
#: items are candidate indices (candidate ``index`` on shard ``index %
#: shards``).  Every verification replays the base schedule plus a full
#: sweep, hence the watchdog scale.
JOB = StagedJob(
    name="fix",
    request=FixRequest,
    item_stage="verify",
    plan=_plan_stage,
    count=lambda _request, plan: len(plan["candidates"]),
    item=_verify_item,
    failed_item=_failed_verify,
    finalize=_finalize_stage,
    watchdog_scale=lambda request: request.verify_schedules,
)


def run_fix(
    spec: LaunchSpec,
    max_candidates: int = 16,
    verify_schedules: int = 4,
    seed: int = 0,
    obs: Observability = NULL_OBS,
) -> FixResult:
    """The local driver: every stage of :data:`JOB`, in this process."""
    return FixResult.from_payload(JOB.run(
        FixRequest(spec, max_candidates, verify_schedules, seed), obs))
