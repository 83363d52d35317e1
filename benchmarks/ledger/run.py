#!/usr/bin/env python3
"""The perf ledger: five workloads, end to end and layer by layer.

Two ways to run it, one measuring loop:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process (the form ``BENCHMARK.json`` names).
    Set-up (import ``repro``, generate inputs from the seed) is repeated
    and its median reported as ``setup_s``; one untimed warm-up pass;
    then closed-loop timed passes for ``S`` seconds, tracing off.  With
    ``--trace 1`` a short untraced reference is followed by one traced
    pass that calls every layer's public functions one at a time (see
    ``layers.py``) and reports the per-layer metrics instead.  Every
    metric is printed by name with its unit; the last line of standard
    output is one JSON object ``{correct, attempted, failed, metrics}``.

``run.py --seed N``
    The whole ledger: each workload above in its own fresh child, once
    untraced and once traced, merged with a provenance block into
    ``out/result.json`` (what ``compare.py`` reads).

Closed loop, one client, one thread: the next pass starts when the last
one returns.  ``parse_ptx_cached`` is cleared before every pass because
a ``repro check`` user pays the parse on every run.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median, so the first,
#: cold import (page cache, ``.pyc`` compilation) does not decide it.
SETUP_REPEATS = {"full": 7, "tiny": 2}
MIN_PASSES = 3
#: Untraced passes a traced run makes to have a wall time to compare to.
REFERENCE_PASSES = 2


def fresh_setup(name: str, seed: int, scale: str):
    """Import the program and generate the workload's inputs, from scratch."""
    for key in list(sys.modules):
        if key.partition(".")[0] in ("repro", "workloads", "layers"):
            del sys.modules[key]
    start = time.perf_counter()
    module = importlib.import_module("workloads")
    workload = module.WORKLOADS[name](seed, scale)
    return module, workload, time.perf_counter() - start


def provenance(args) -> dict:
    """Where, when and on what these numbers were taken."""

    def git(*command: str) -> str:
        try:
            done = subprocess.run(
                ("git",) + command, cwd=ROOT, capture_output=True, text=True,
                timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    columnar = sys.modules.get("repro.columnar")
    commit = git("rev-parse", "HEAD")
    return {
        "commit": commit or "unknown",
        "dirty": bool(git("status", "--porcelain")) if commit else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if columnar and columnar.have_numpy() else "off",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
    }


def timed_passes(workload, laps_type, seconds: float, min_passes: int):
    """Closed-loop passes until ``seconds`` have been measured."""
    passes = []  # (laps, result) of every pass that returned
    raised = 0
    measured = 0.0
    while measured < seconds or len(passes) + raised < min_passes:
        gc.collect()
        laps = laps_type()
        laps.mark()
        try:
            result = workload.run_pass(laps)
        except Exception:  # a pass that raised counts as a failed operation
            traceback.print_exc()
            raised += 1
        else:
            passes.append((laps, result))
        laps.mark()
        measured += laps.wall[-1] - laps.wall[0]
    return passes, raised


def quiet_total(readings: List[List[float]], unit: str) -> dict:
    """A pass's time on a quiet machine, from several noisy passes.

    ``readings[p]`` are the clock readings of pass ``p`` at its laps.
    The passes replay identical work and a neighbour on this shared box
    can only slow a stretch of one down (by half, for seconds at a
    time), so each lap keeps its fastest reading and the value is their
    sum.  The whole-pass minimum, median and maximum are kept beside
    it; ``spread`` says how far the fastest whole pass was from the
    value.  Passes whose laps do not line up did different work: the
    value falls back to the fastest whole pass and ``laps`` is 0.
    """
    totals = [r[-1] - r[0] for r in readings]
    value, laps = min(totals), 0
    if len({len(r) for r in readings}) == 1:
        laps = len(readings[0]) - 1
        value = sum(
            min(r[k + 1] - r[k] for r in readings) for k in range(laps))
    return {"value": value, "unit": unit, "laps": laps, "n": len(totals),
            "min": min(totals), "median": statistics.median(totals),
            "max": max(totals), "spread": (min(totals) - value) / value,
            "samples": totals}


def run_one(args) -> int:
    """One workload in this process; the driver's entry point."""
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC}/repro not found: the ledger measures the "
              "checkout it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name, tracing = args.workload, bool(args.trace)

    setups = []
    for _ in range(1 if tracing else SETUP_REPEATS[args.scale]):
        module, workload, took = fresh_setup(name, args.seed, args.scale)
        setups.append(took)
    workload.warm_up()
    passes, raised = timed_passes(
        workload, module.Laps, 0.0 if tracing else args.seconds,
        REFERENCE_PASSES if tracing else MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not passes:
        print("error: every pass raised", file=sys.stderr)
        return 1
    results = [result for _laps, result in passes]

    first = results[0]
    attempted = sum(r.attempted for r in results) + raised
    failed = sum(r.failed for r in results) + raised
    # Counts are deterministic for a seed: every pass must repeat them.
    attempted += 1
    repeatable = all(
        (r.counts, r.digest) == (first.counts, first.digest) for r in results)
    failed += not repeatable

    wall = quiet_total([laps.wall for laps, _result in passes], "s")
    attempted += 1
    failed += wall["laps"] == 0
    detail = {
        "workload": name, "trace": args.trace, "passes": len(passes),
        "counts": first.counts, "digest": first.digest,
        "provenance": provenance(args),
    }
    if tracing:
        trace = module.LayerTrace(name)
        gc.collect()
        workload.traced_pass(trace)
        OUT.mkdir(exist_ok=True)
        # The traced pass is one sample, so it is held against the
        # typical untraced pass, not the fastest.
        values = trace.metrics(
            workload.on_path, wall["median"], trace.pure_codec(OUT))
        trace.rec.write_chrome_trace(OUT / f"trace_{name}.json")
        # The layers must agree with each other: both detector paths,
        # both capture formats and both codecs give the same answer.
        attempted += 1
        failed += trace.mismatches > 0
        reported = {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in metrics.PER_LAYER
        }
        detail["self_times_s"] = trace.rec.self_times()
    else:
        samples = [s for r in results for s in r.samples]
        if len(samples) >= 20:
            detail["operation_ms"] = {
                "median": statistics.median(samples) * 1e3,
                "p90": statistics.quantiles(samples, n=10)[-1] * 1e3,
                "n": len(samples),
            }
        records = first.records
        rate = {
            "value": records / wall["value"], "unit": "records/s",
            "n": wall["n"], "min": records / wall["max"],
            "median": records / wall["median"], "max": records / wall["min"],
            "spread": wall["spread"],
        }
        reported = {
            "wall_s": wall,
            "cpu_s": quiet_total([laps.cpu for laps, _result in passes], "s"),
            "records_per_s": rate,
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {
                "value": statistics.median(setups), "unit": "s", "n": len(setups),
                "min": min(setups), "median": statistics.median(setups),
                "max": max(setups), "samples": setups,
            },
            "ops_attempted": {"value": first.attempted, "unit": "count"},
        }
    detail.update(metrics=reported, attempted=attempted, failed=failed,
                  failed_share=failed / attempted)

    print(f"# {name} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"passes={len(passes)} failed_share={failed / attempted:g}")
    for metric, entry in reported.items():
        spread = (f"  (n={entry['n']}, min {entry['min']:.6g}, median "
                  f"{entry['median']:.6g}, max {entry['max']:.6g})"
                  if "n" in entry else "")
        print(f"{metric:<40} {entry['value']:>16.6f} {entry['unit']}{spread}")
    for metric, value in first.counts.items():
        print(f"count.{metric:<34} {value:>16d} count")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run_{name}_trace{args.trace}.json", "w", encoding="utf-8") as stream:
        json.dump(detail, stream, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in reported.items()
        },
    }))
    return 0


def run_ledger(args) -> int:
    """Every workload, untraced then traced, each in a fresh child."""
    result = {"schema": 1, "provenance": None, "workloads": {}}
    status = 0
    for name in metrics.WORKLOADS:
        merged: Dict[str, dict] = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--scale", args.scale],
                cwd=ROOT)
            if done.returncode != 0:
                print(f"error: {name} --trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                return 1
            with open(OUT / f"run_{name}_trace{trace}.json", encoding="utf-8") as stream:
                detail = json.load(stream)
            status |= detail["failed"] > 0
            merged["per_layer" if trace else "end_to_end"] = detail["metrics"]
            if trace:
                merged["self_times_s"] = detail["self_times_s"]
            else:
                result["provenance"] = detail["provenance"]
                for key in ("passes", "counts", "digest", "operation_ms"):
                    if key in detail:
                        merged[key] = detail[key]
            merged["failed_share"] = max(
                merged.get("failed_share", 0.0), detail["failed_share"])
        result["workloads"][name] = merged
    path = Path(args.output) if args.output else OUT / "result.json"
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(result, stream, indent=1)
    print(f"# wrote {path}")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS),
                        help="run one workload in this process (default: all, "
                             "each in a child, into out/result.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time to measure per run (default: "
                             f"{metrics.RUN_SECONDS}, or 0.5 at --scale tiny)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--output", help="where the whole ledger writes its "
                                         "result (default: out/result.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = metrics.RUN_SECONDS if args.scale == "full" else 0.5
    return run_one(args) if args.workload else run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
