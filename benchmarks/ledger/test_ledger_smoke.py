"""Smoke test of the perf ledger; run explicitly, not part of tier-1::

    python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

It runs the whole ledger at ``--scale tiny`` (same shapes, small sizes)
and checks the harness, not the numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_ledger(seed: int) -> dict:
    """One tiny ledger run; results stay in the (ignored) ``out/`` directory."""
    output = HERE / "out" / f"smoke_{seed}.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny",
         "--seed", str(seed), "--output", str(output)],
        check=True, cwd=ROOT, capture_output=True, timeout=120)
    took = time.perf_counter() - start
    assert took < 30, f"tiny ledger took {took:.1f}s"
    with open(output, encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def first() -> dict:
    return run_ledger(3)


def counts_of(result: dict) -> dict:
    """Everything that must repeat exactly for a seed."""
    picked = {}
    for name, workload in result["workloads"].items():
        picked[name] = {
            "counts": workload["counts"],
            "digest": workload["digest"],
            "ops_attempted": workload["end_to_end"]["ops_attempted"]["value"],
            "per_layer": {
                m.name: workload["per_layer"][m.name]["value"]
                for m in metrics.PER_LAYER if metrics.is_count(m)
            },
        }
    return picked


def test_benchmark_json_matches_the_catalogue():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        assert json.load(stream) == metrics.benchmark_json()


def test_tiny_ledger_emits_every_metric(first):
    assert set(first["workloads"]) == set(metrics.WORKLOADS)
    for key in ("commit", "dirty", "python", "numpy", "cpu", "nproc", "date", "seed"):
        assert key in first["provenance"]
    for name, workload in first["workloads"].items():
        assert workload["failed_share"] == 0, name
        assert workload["passes"] >= 3, name
        for m in metrics.END_TO_END:
            entry = workload["end_to_end"][m.name]
            assert entry["unit"] == m.unit and entry["value"] > 0, (name, m.name)
        for m in metrics.PER_LAYER:
            entry = workload["per_layer"][m.name]
            assert entry["unit"] == m.unit, (name, m.name)
        assert 0.5 < workload["per_layer"]["trace.coverage"]["value"] < 1.5, name
        trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
        assert any(e["ph"] == "X" and e["args"]["parent"] >= 0
                   for e in trace["traceEvents"]), name


def test_counts_repeat_for_a_seed_and_differ_for_another(first):
    assert counts_of(run_ledger(3)) == counts_of(first)
    other = counts_of(run_ledger(4))
    for name, mine in counts_of(first).items():
        assert other[name]["digest"] != mine["digest"], name


@pytest.mark.parametrize("name", ["stream_scale", "replay_scale"])
def test_withholding_a_planted_race_fails_the_verdict_check(name):
    workload = workloads.WORKLOADS[name](seed=5, scale="tiny")
    clean = workload.run_pass(workloads.Laps())
    assert clean.failed == 0 and clean.attempted == clean.counts["races"] + 2
    if name == "stream_scale":
        workload.pairs.pop()
    else:
        workload.expected_races.pop()
    withheld = workload.run_pass(workloads.Laps())
    assert withheld.failed > 0
    assert withheld.failed / withheld.attempted > 0


def test_compare_flags_a_regression(first):
    import compare

    base = first
    slower = json.loads(json.dumps(base))
    entry = slower["workloads"]["replay_scale"]["end_to_end"]["wall_s"]
    for key in ("value", "min", "median", "max"):
        entry[key] *= 1.5
    _lines, regressions = compare.compare(base, base)
    assert regressions == 0
    lines, regressions = compare.compare(base, slower)
    assert regressions == 1
    assert any("replay_scale | wall_s" in line and "regressed" in line for line in lines)
