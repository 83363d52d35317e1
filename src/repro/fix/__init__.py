"""Automated race repair: synthesize, verify and rank minimal PTX patches.

The subsystem closes the loop the paper leaves open: a confirmed race
(dynamic report + static lint classification) becomes a set of candidate
PTX patches — barrier insertion on the barrier-free path, fence-scope
widening, atomic promotion, uniform-guard hoisting — each verified by a
full pipeline re-run (dynamic detector, predictive sweep, static lint,
reference-output bit-identity) and ranked by static instruction-count
delta.  See docs/static-analysis.md, "From detection to repair".
"""

from .driver import FixResult, finalize_fix, plan_fix, run_fix
from .patches import Edit, Patch, apply_patch
from .synthesize import synthesize_candidates
from .verify import verify_candidate_payload

__all__ = [
    "Edit",
    "FixResult",
    "Patch",
    "apply_patch",
    "finalize_fix",
    "plan_fix",
    "run_fix",
    "synthesize_candidates",
    "verify_candidate_payload",
]
