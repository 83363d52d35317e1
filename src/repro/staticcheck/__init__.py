"""Static PTX analysis: race lint and proof-guided instrumentation pruning.

Public surface:

* :func:`run_lint` / :func:`lint_kernel` — the rule engine producing
  :class:`Finding` diagnostics, rendered by :func:`render_text` /
  :func:`render_json`.
* :func:`prune_private_sites` / :class:`Privacy` — the symbolic address
  classification that lets the instrumenter drop logging for provably
  thread-private accesses.
* The underlying passes (:func:`build_def_use`, :func:`analyze_taint`,
  :class:`SymbolicEvaluator`, :class:`GuardAnalysis`) for tests and
  downstream tooling.
"""

from .addresses import (
    AccessSite,
    Privacy,
    SymbolicEvaluator,
    classify_site_privacy,
    collect_access_sites,
    prune_private_sites,
)
from .dataflow import DefUse, build_def_use
from .guards import Constraint, GuardAnalysis, interval_of
from .lint import (
    Finding,
    KernelContext,
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    lint_kernel,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)
from .taint import TaintAnalysis, analyze_taint

__all__ = [
    "AccessSite",
    "Constraint",
    "DefUse",
    "Finding",
    "GuardAnalysis",
    "KernelContext",
    "Privacy",
    "RULES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SymbolicEvaluator",
    "TaintAnalysis",
    "analyze_taint",
    "build_def_use",
    "classify_site_privacy",
    "collect_access_sites",
    "interval_of",
    "lint_kernel",
    "prune_private_sites",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
