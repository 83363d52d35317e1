#!/usr/bin/env python3
"""Compare two ledger results: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  Each argument is a
result file written by ``run.py`` (``out/result.json``); ``FILE:N``
picks set ``N`` of a file that holds several (``BASELINE.json``).

Prints one row per workload x end-to-end metric — value, range over the
passes, B/A with its base, and a verdict:

``regressed``   B is worse than A by more than the metric's bound;
``unresolved``  neither side's estimate is tighter than the bound (for a
                best-of-n timing: its two fastest passes disagree by more
                than the bound), unless every pass of B beats every pass
                of A;
``ok``          otherwise.

Then the per-layer delta table, and every count that differs (counts
must repeat exactly for one seed on one commit).  Exits non-zero when a
row regressed.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

import metrics


def load(argument: str) -> dict:
    path, _, index = argument.rpartition(":")
    if not path or not index.isdigit():
        path, index = argument, ""
    with open(path, encoding="utf-8") as stream:
        data = json.load(stream)
    if "sets" in data:
        return data["sets"][int(index or 0)]
    return data


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if worse_by(a["value"], b["value"], better) > bound:
        return "regressed"
    spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
    if spread > bound:
        if "min" in a and "min" in b:
            clear = (b["max"] < a["min"]) if better == "lower" else (b["min"] > a["max"])
            if clear:
                return "ok"
        return "unresolved"
    return "ok"


def span(entry: dict) -> str:
    text = f"{entry['value']:.5g}"
    if "min" in entry:
        text += f" [{entry['min']:.4g}-{entry['max']:.4g}, n={entry['n']}]"
    return text


def compare(a: dict, b: dict) -> Tuple[List[str], int]:
    lines: List[str] = []
    regressions = 0
    same_seed = a["provenance"]["seed"] == b["provenance"]["seed"]
    for side, result in (("A", a), ("B", b)):
        p = result["provenance"]
        lines.append(
            f"{side}: commit {p['commit'][:12]}{' (dirty)' if p['dirty'] else ''} "
            f"seed {p['seed']} scale {p['scale']} python {p['python']} numpy "
            f"{p['numpy']} {p['cpu']} x{p['nproc']} {p['date']}")
    lines += ["", "| workload | metric | A | B | B/A | bound | verdict |",
              "|---|---|---|---|---|---|---|"]
    for name in metrics.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows = [(m.name, wa["end_to_end"][m.name], wb["end_to_end"][m.name],
                 m.better, m.bound) for m in metrics.END_TO_END]
        rows.append(("failed_share", {"value": wa["failed_share"]},
                     {"value": wb["failed_share"]}, "lower", 0.0))
        for metric, ea, eb, better, bound in rows:
            outcome = verdict(ea, eb, better, bound)
            if metric == "failed_share" and eb["value"] > 0:
                outcome = "regressed"
            regressions += outcome == "regressed"
            ratio = (f"{eb['value'] / ea['value']:.3f} (base {ea['value']:.5g})"
                     if ea["value"] else "-")
            lines.append(
                f"| {name} | {metric} | {span(ea)} | {span(eb)} | {ratio} | "
                f"{bound:g} | {outcome} |")
    lines += ["", "| workload | layer metric | A | B | delta |", "|---|---|---|---|---|"]
    changed: List[str] = []
    for name in metrics.WORKLOADS:
        la, lb = a["workloads"][name]["per_layer"], b["workloads"][name]["per_layer"]
        for m in metrics.PER_LAYER:
            va, vb = la[m.name]["value"], lb[m.name]["value"]
            if va == 0 and vb == 0:
                continue
            delta = f"{(vb - va) / va:+.1%}" if va else "new"
            lines.append(f"| {name} | {m.name} ({m.unit}) | {va:.6g} | {vb:.6g} | {delta} |")
            if metrics.is_count(m) and va != vb:
                changed.append(f"{name}: {m.name} {va:.6g} -> {vb:.6g}")
        ca, cb = a["workloads"][name]["counts"], b["workloads"][name]["counts"]
        changed += [f"{name}: count.{key} {ca[key]} -> {cb.get(key)}"
                    for key in ca if ca[key] != cb.get(key)]
    lines.append("")
    if not changed:
        lines.append("counts: all equal")
    else:
        lines.append("counts that differ" + (
            " (same seed: the code's work changed)" if same_seed
            else " (the seeds differ, so may the inputs)") + ":")
        lines += [f"  {line}" for line in changed]
    lines.append(f"regressions: {regressions}")
    return lines, regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    lines, regressions = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
