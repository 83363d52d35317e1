"""DRF determinism: a barrier-only run with no report has one final image.

Take a corpus entry whose only synchronization is barriers, which its
PTX decides: no ``atom``/``red``/``membar``/``fence`` and no
``.volatile``/``.acquire``/``.release``/``.relaxed`` access.  Such a
program has no flag to read and nothing to count with, so when the
detector finds no race (and no barrier divergence, and no hang) in a
run, every load of that run read the one value the barriers order
before it, and the run's final buffers are what every other race-free
schedule leaves.  The property draws an entry, a scheduler kind and a
seed, and holds that run's final image to the round-robin run's
whenever neither reports anything; a sweep holds every entry to it
under each kind at seed 0.

It measures the detector against what the program can observably do,
and the engine's barriers against what the detector assumes of them: a
barrier release that publishes too little, or a detector that orders
too much, shows as two clean runs that disagree.

The example budget is the hypothesis profile's (``tests/conftest.py``).
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StepLimitExceeded
from repro.gpu.scheduler import SCHEDULER_KINDS, make_scheduler
from repro.jobs import launch_spec
from repro.ptx.ast import Instruction

from test_columnar import CAPTURE_CORPUS

#: Opcodes that synchronize other than by barrier.
SYNC_OPCODES = frozenset({"atom", "red", "membar", "fence"})
#: Access qualifiers a flag protocol reads or writes through.
ORDERED_ACCESSES = frozenset({"volatile", "acquire", "release", "relaxed"})


def _barrier_only(entry) -> bool:
    module = entry.spec.compile()
    return not any(
        isinstance(stmt, Instruction)
        and (stmt.opcode in SYNC_OPCODES or ORDERED_ACCESSES & set(stmt.modifiers))
        for body in module.kernels + module.functions
        for stmt in body.body
    )


@functools.lru_cache(maxsize=None)
def _barrier_only_entries():
    return [entry for entry in CAPTURE_CORPUS if _barrier_only(entry)]


@functools.lru_cache(maxsize=None)
def _run(name: str, kind: str, seed: int):
    """``(reported, final buffers)`` of one launch of corpus entry
    ``name``; a hang is a report."""
    (entry,) = [entry for entry in _barrier_only_entries() if entry.name == name]
    try:
        launched = launch_spec(entry.spec, scheduler=make_scheduler(kind, seed))
    except StepLimitExceeded:
        return True, None
    reports = launched.launch.reports
    return bool(reports.races or reports.barrier_divergences), launched.read_buffers()


def test_the_barrier_only_entries_are_the_ones_without_other_sync():
    names = {entry.name for entry in _barrier_only_entries()}
    assert len(names) == 66
    assert {"grid_sync_fixed", "shared_reduction_correct", "pathfinder",
            "mp_no_fences"} <= names
    assert not names & {"atomic_slot_allocation", "flag_conditional_read"}


def _assert_one_image(name: str, kind: str, seed: int) -> None:
    reported, image = _run(name, kind, seed)
    base_reported, base_image = _run(name, "roundrobin", 0)
    if not reported and not base_reported:
        assert image == base_image, (name, kind, seed)


@given(st.deferred(lambda: st.sampled_from(_barrier_only_entries())),
       st.sampled_from(SCHEDULER_KINDS), st.integers(0, 2**16))
def test_race_free_runs_leave_one_final_image(entry, kind, seed):
    _assert_one_image(entry.name, kind, seed)


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_every_entry_leaves_one_final_image_at_seed_zero(kind):
    # The property draws one entry per example; this sweeps all of them,
    # so an entry only a few schedules expose is never left undrawn.
    for entry in _barrier_only_entries():
        _assert_one_image(entry.name, kind, 0)
