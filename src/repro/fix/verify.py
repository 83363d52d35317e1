"""Candidate verification: the full pipeline re-run behind every patch.

A candidate survives only when, against the unpatched baseline:

1. the dynamic detector no longer reports the target race under the
   deterministic base schedule, and reports nothing the baseline did
   not already contain;
2. a predictive sweep (``repro.predict``) over ``verify_schedules``
   seeded schedules finds no schedule-dependent race beyond the
   baseline's (and none of the targets);
3. the static lint does not regress — no more errors, no more warnings,
   and especially no new barrier-divergence findings;
4. the reference outputs (every device buffer after the base-schedule
   run) are bit-identical to the unpatched program's.

All comparisons happen in *pc-key space* translated through the patch's
line map, because insertions (and new register declarations) shift PTX
text lines.  Everything here is a pure function of its arguments, so
the local driver and the service's ``FIX`` workers produce identical
payload bytes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Set, Tuple

from ..core.races import race_sort_key, race_to_payload
from ..errors import ReproError, SimulationError, StepLimitExceeded
from ..jobs import LaunchSpec, launch_spec
from ..obs import NULL_OBS, Observability
from ..ptx import parse_ptx
from ..ptx.ast import Module
from ..staticcheck import SEVERITY_ERROR, run_lint
from .patches import Patch, apply_patch, instruction_delta
from .synthesize import (
    PcKey,
    key_from_payload,
    key_to_payload,
    pc_key,
    translate_key,
)

#: Candidate verification statuses, from best to worst.
STATUS_VERIFIED = "verified"
STATUS_RACE_PERSISTS = "race-persists"
STATUS_NEW_RACE = "new-race"
STATUS_LINT_REGRESSION = "lint-regression"
STATUS_OUTPUT_DIVERGED = "output-diverged"
STATUS_DIVERGENCE = "barrier-divergence"
STATUS_ERROR = "error"


def canonicalize(spec) -> Tuple[object, Module]:
    """Rewrite a spec onto its canonical printed-PTX source.

    The session registers modules by printing and re-parsing them, so
    race-report PCs are text lines of ``str(module)`` — the same space
    lint findings and patch line maps live in.  Pinning the spec to
    that exact text makes every later comparison line-stable.
    """
    module = parse_ptx(str(spec.compile()))
    kernel = spec.kernel or module.kernels[0].name
    return replace(spec, source=str(module), is_ptx=True, kernel=kernel), module


def _lint_summary(module: Module) -> Dict[str, int]:
    findings = run_lint(module)
    return {
        "errors": sum(1 for f in findings if f.severity == SEVERITY_ERROR),
        "warnings": sum(1 for f in findings if f.severity != SEVERITY_ERROR),
        "barrier_divergence": sum(
            1 for f in findings if f.rule == "barrier-divergence"
        ),
    }


def _sweep_keys(spec, verify_schedules: int, seed: int,
                obs: Observability = NULL_OBS):
    """The predictive sweep's race keys plus per-run health flags."""
    from ..predict.sweep import run_sweep

    result = run_sweep(spec, schedules=verify_schedules, seed=seed, obs=obs)
    keys: Set[PcKey] = set()
    for race in result.base_races:
        keys.add(pc_key(race))
    for race in result.findings:
        keys.add(pc_key(race))
    unhealthy = sum(
        1 for run in result.runs if run.get("hung") or run.get("error")
    )
    return result, keys, unhealthy


def compute_baseline(
    spec: LaunchSpec,
    verify_schedules: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> dict:
    """The unpatched program's reference behavior, as a payload."""
    cspec, module = canonicalize(spec)
    launched = launch_spec(cspec, obs=obs)
    launch, outputs = launched.launch, launched.read_buffers()
    findings = run_lint(module)
    sweep, sweep_keys, unhealthy = _sweep_keys(
        cspec, verify_schedules, seed, obs
    )
    races = sorted(launch.races, key=race_sort_key)
    confirmed = sorted(
        (race for race in sweep.findings if race.confirmed),
        key=race_sort_key,
    )
    base_keys = {pc_key(race) for race in races}
    return {
        "kernel": cspec.kernel,
        "source": cspec.source,
        "races": [race_to_payload(race) for race in races],
        "confirmed": [race_to_payload(race) for race in confirmed],
        "race_keys": sorted(key_to_payload(k) for k in base_keys),
        "sweep_keys": sorted(key_to_payload(k) for k in sweep_keys),
        "divergences": len(launch.reports.barrier_divergences),
        "unhealthy_runs": unhealthy,
        "lint": _lint_summary(module),
        "outputs": {name: values for name, values in sorted(outputs.items())},
    }


def verify_candidate_payload(
    spec: LaunchSpec,
    baseline: dict,
    candidate: dict,
    index: int,
    verify_schedules: int,
    seed: int,
    obs: Observability = NULL_OBS,
) -> dict:
    """Run the full verification pipeline over one candidate patch."""
    patch = Patch.from_payload(candidate["patch"])
    targets = {key_from_payload(k) for k in candidate.get("targets", [])}
    result = {
        "index": int(index),
        "strategy": patch.strategy,
        "description": patch.description,
        "rule": candidate.get("rule", ""),
        "targets": sorted(key_to_payload(k) for k in targets),
        "delta": instruction_delta(patch),
        "anchor_line": patch.anchor_line,
        "status": STATUS_ERROR,
        "detail": "",
    }

    try:
        module = parse_ptx(baseline["source"])
        patched, line_map = apply_patch(module, patch)
        pspec = replace(
            spec,
            source=str(patched),
            is_ptx=True,
            kernel=baseline["kernel"],
        )
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        result["detail"] = f"patch application failed: {exc}"
        return result

    translated_targets = {translate_key(k, line_map) for k in targets}
    allowed = {
        translate_key(key_from_payload(k), line_map)
        for k in baseline["race_keys"] + baseline["sweep_keys"]
    } - translated_targets

    try:
        launched = launch_spec(pspec, obs=obs)
        launch, outputs = launched.launch, launched.read_buffers()
    except (StepLimitExceeded, SimulationError, ReproError) as exc:
        result["detail"] = f"patched base run failed: {exc}"
        return result

    patched_keys = {pc_key(race) for race in launch.races}
    if patched_keys & translated_targets:
        result["status"] = STATUS_RACE_PERSISTS
        result["detail"] = "target race still detected on the base schedule"
        return result
    if patched_keys - allowed:
        result["status"] = STATUS_NEW_RACE
        result["detail"] = "patched run reports a race the baseline did not"
        return result
    if len(launch.reports.barrier_divergences) > baseline["divergences"]:
        result["status"] = STATUS_DIVERGENCE
        result["detail"] = "patch introduced barrier divergence"
        return result
    if outputs != baseline["outputs"]:
        result["status"] = STATUS_OUTPUT_DIVERGED
        result["detail"] = "reference outputs are not bit-identical"
        return result

    lint = _lint_summary(patched)
    base_lint = baseline["lint"]
    if (
        lint["barrier_divergence"] > base_lint["barrier_divergence"]
        or lint["errors"] > base_lint["errors"]
        or lint["warnings"] > base_lint["warnings"]
    ):
        result["status"] = STATUS_LINT_REGRESSION
        result["detail"] = (
            f"lint regressed: {lint['errors']}e/{lint['warnings']}w vs "
            f"baseline {base_lint['errors']}e/{base_lint['warnings']}w"
        )
        return result

    try:
        _sweep, sweep_keys, unhealthy = _sweep_keys(
            pspec, verify_schedules, seed, obs
        )
    except ReproError as exc:
        result["detail"] = f"patched sweep failed: {exc}"
        return result
    if unhealthy > baseline["unhealthy_runs"]:
        result["status"] = STATUS_DIVERGENCE
        result["detail"] = "patched schedule runs hang or error"
        return result
    if sweep_keys & translated_targets:
        result["status"] = STATUS_RACE_PERSISTS
        result["detail"] = "target race reappears under swept schedules"
        return result
    if sweep_keys - allowed:
        result["status"] = STATUS_NEW_RACE
        result["detail"] = "sweep found a schedule-dependent race the baseline did not"
        return result

    result["status"] = STATUS_VERIFIED
    result["detail"] = "race gone, sweep clean, lint clean, outputs bit-identical"
    result["patched_source"] = str(patched)
    return result
