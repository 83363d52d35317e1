"""The CUDA concurrency bug suite (paper §6.1 plus modern idioms).

Every program is one kernel file of ``repro/corpus/suite`` (and the
schedule-sensitive companions of ``repro/corpus/schedule``), loaded by
:func:`repro.jobs.load_corpus` in file-name order; ``repro check FILE``
runs the same launch from the file's header.  By category:

* ``global``, ``shared`` — basic races and their barrier-ordered fixes.
* ``branch`` — branch-ordering races (§3.3.1) and barrier divergence.
* ``atomics`` — atomics neither race with each other nor order anything
  (§3.3.2); mixing atomic and plain accesses is a race.
* ``fences`` — flag message passing at block and global fence scope,
  the race-detection side of the litmus study (§3.3.3).
* ``locks`` — CAS spinlocks at both scopes and the GPU-TM hashtable bugs
  of §6.3.
* ``grid`` — grid barriers built from atomics and fences, and how they
  decay when a fence is dropped.
* ``warp``, ``misc`` — warp-lockstep semantics: cross-instruction lane
  communication is ordered, same-instruction conflicts are not.
* ``shuffle``, ``async`` (:data:`MODERN_PROGRAMS`, beyond the paper's
  66) — warp shuffle/vote register exchanges, ``cp.async`` copies whose
  shared store lands at the wait, and ``__grid_sync()``.

:data:`SCHEDULE_PROGRAMS` are racy only under schedules the fair default
never produces, so their single-schedule verdict is no race (or a race
elsewhere); they exercise ``repro.predict``: a warp-order flag handoff
without a spin, a barrier-guarded writer pair, a two-variable reorder on
the relaxed profile, and ``handoff_spin_control``, the spinning negative
control.  Use ``len(ALL_PROGRAMS)`` — never a hard-coded count — when
asserting over the registry.
"""

from ..jobs import load_corpus
from .model import Buffer, Expected, SuiteProgram, Verdict, run_program

#: Every suite program, in suite order.  The schedule-sensitive
#: companions (:data:`SCHEDULE_PROGRAMS`) are deliberately excluded:
#: their verdict depends on the schedule, which is the point of
#: ``repro.predict``.
ALL_PROGRAMS = load_corpus("suite", SuiteProgram)

SCHEDULE_PROGRAMS = load_corpus("schedule", SuiteProgram)

#: The modern-idiom subset (the families added on top of the paper's 66).
MODERN_PROGRAMS = tuple(entry for entry in ALL_PROGRAMS
                        if entry.category in ("shuffle", "async"))

#: The paper's original suite size; ALL_PROGRAMS grows beyond it.
PAPER_PROGRAM_COUNT = 66


def program(name: str) -> SuiteProgram:
    """Look up a suite program by name."""
    for entry in ALL_PROGRAMS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def schedule_program(name: str) -> SuiteProgram:
    """Look up a schedule-sensitive program by name."""
    for entry in SCHEDULE_PROGRAMS:
        if entry.name == name:
            return entry
    raise KeyError(name)
