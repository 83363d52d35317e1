"""The full Table 1 workload registry: the files of ``corpus/table1``."""

from __future__ import annotations

from typing import List

from ..jobs import load_corpus
from .workload_model import Workload, WorkloadResult, run_workload

#: All 26 benchmarks, in Table 1 order.
ALL_WORKLOADS: List[Workload] = load_corpus("table1", Workload)


def workload(name: str) -> Workload:
    """Look up a workload by its Table 1 name."""
    for entry in ALL_WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(name)
