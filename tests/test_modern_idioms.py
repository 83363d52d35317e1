"""Differential conformance for the modern-idiom suite families.

Every shuffle/vote/cp.async/grid-sync program runs through the full
matrix the older suites established one axis at a time:

* engine oracle vs production engine — full record-stream, counter,
  and report equality (``test_suite_program_equivalence`` in
  ``test_engine_equivalence.py`` covers these programs as members of
  ``ALL_PROGRAMS``; the property tests below add generated kernels);
* JSONL vs binary columnar capture (BCAP) — lossless round-trip and
  replay equality against the live launch (the per-record oracle
  differential over these same programs lives in
  ``test_engine_equivalence.py``).

On top of the matrix, property-based tests pin the semantics the new
instructions claim: shuffles round-trip register values without emitting
a single memory event, and no commit/wait interleaving that completes
with ``wait_group 0`` before the read ever produces a false race.
"""

import contextlib
import io

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError, StepLimitExceeded
from repro.events import GRID_BARRIER_BLOCK, RecordKind
from repro.gpu.hierarchy import LaunchConfig
from repro.runtime import BarracudaSession
from repro.runtime.replay import (
    load_capture,
    load_capture_binary,
    replay,
    save_capture,
    save_capture_binary,
)
from repro.suite import MODERN_PROGRAMS, program

from oracle import oracle_engine

#: The engine oracle first, then the production engine.
_ENGINES = {"oracle": oracle_engine, "production": contextlib.nullcontext}


def _launch_program(suite_program, static_prune: bool = False):
    session = BarracudaSession(static_prune=static_prune)
    module = suite_program.compile()
    session.register_module(module)
    params: Dict[str, int] = {}
    for buffer in suite_program.buffers:
        addr = session.device.alloc(buffer.words * 4)
        values = list(buffer.init) + [0] * (buffer.words - len(buffer.init))
        session.device.memcpy_to_device(addr, values)
        params[buffer.name] = addr
    for name, value in suite_program.scalars:
        params[name] = value
    return session.launch(
        module.kernels[0].name,
        grid=suite_program.grid,
        block=suite_program.block,
        warp_size=suite_program.warp_size,
        params=params,
        max_steps=suite_program.max_steps,
        capture_records=True,
        cooperative=suite_program.cooperative,
    )


def _summarize(suite_program, static_prune: bool = False) -> Tuple:
    try:
        launch = _launch_program(suite_program, static_prune)
    except StepLimitExceeded:
        return ("hang",)
    except SimulationError as exc:
        return ("error", str(exc))
    result = launch.instrumented
    return (
        "ok",
        launch.captured_records,
        (
            result.instructions,
            result.cycles,
            result.stall_cycles,
            result.records_emitted,
        ),
        sorted(str(race) for race in launch.reports.races),
        sorted(str(report) for report in launch.reports.barrier_divergences),
    )


@pytest.mark.parametrize("static_prune", [False, True], ids=["prune-off", "prune-on"])
@pytest.mark.parametrize("suite_program", MODERN_PROGRAMS, ids=lambda p: p.name)
def test_engine_equivalence(suite_program, static_prune):
    """Every modern program executes cleanly (its oracle differential
    is ``test_engine_equivalence.py::test_suite_program_equivalence``)."""
    assert _summarize(suite_program, static_prune)[0] == "ok"


@pytest.mark.parametrize("suite_program", MODERN_PROGRAMS, ids=lambda p: p.name)
def test_capture_and_detector_path_equivalence(suite_program):
    """Each new program × {jsonl, bcap}: the persisted stream is
    lossless and its replay reproduces the live reports exactly —
    including the grid-wide BARRIER records with their
    ``warp = GRID_BARRIER_BLOCK`` sentinel."""
    outcome = _summarize(suite_program, False)
    assert outcome[0] == "ok"
    records = outcome[1]
    races, divergences = outcome[3], outcome[4]
    layout = LaunchConfig.of(
        suite_program.grid, suite_program.block, suite_program.warp_size
    ).layout()

    text = io.StringIO()
    save_capture(text, layout, records, kernel=suite_program.name)
    text.seek(0)
    jsonl_layout, jsonl_kernel, jsonl_records = load_capture(text)
    assert (jsonl_layout, jsonl_kernel) == (layout, suite_program.name)
    assert jsonl_records == records

    blob = io.BytesIO()
    save_capture_binary(
        blob, layout, records, kernel=suite_program.name, batch_records=64
    )
    blob.seek(0)
    bin_layout, bin_kernel, batches = load_capture_binary(blob)
    assert (bin_layout, bin_kernel) == (layout, suite_program.name)
    bin_records = [r for batch in batches for r in batch.to_records()]
    assert bin_records == records

    for loaded in (jsonl_records, batches):
        reports = replay(layout, loaded)
        assert sorted(str(race) for race in reports.races) == races
        assert sorted(
            str(report) for report in reports.barrier_divergences
        ) == divergences


def test_shuffle_programs_emit_no_warp_sync_memory_events():
    """The register-exchange guarantee: the pure shuffle/vote programs
    emit only the memory records of their explicit global loads/stores —
    nothing for the shuffles themselves, and no shared-space records at
    all."""
    for name in ("shfl_butterfly_reduction", "shfl_broadcast_lane0"):
        launch = _launch_program(program(name))
        assert launch.reports.races == []
        spaces = {
            space.value
            for record in launch.captured_records
            if record.kind in (RecordKind.LOAD, RecordKind.STORE)
            for space, _ in record.addrs.values()
        }
        assert spaces == {"global"}


def test_grid_barrier_record_uses_the_sentinel_block():
    """Cooperative __grid_sync emits exactly one grid-wide BARRIER record
    joining every thread, tagged with the GRID_BARRIER_BLOCK sentinel."""
    launch = _launch_program(program("grid_sync_fixed"))
    grid_bars = [
        record
        for record in launch.captured_records
        if record.kind is RecordKind.BARRIER
        and record.warp == GRID_BARRIER_BLOCK
    ]
    assert len(grid_bars) == 1
    total_threads = 2 * 64
    assert len(grid_bars[0].active) == total_threads


def test_non_cooperative_grid_sync_is_a_clean_simulation_error():
    suite_program = program("grid_sync_fixed")
    session = BarracudaSession()
    module = suite_program.compile()
    session.register_module(module)
    params = {}
    for buffer in suite_program.buffers:
        params[buffer.name] = session.device.alloc(buffer.words * 4)
    with pytest.raises(SimulationError, match="cooperative"):
        session.launch(
            module.kernels[0].name,
            grid=suite_program.grid,
            block=suite_program.block,
            warp_size=suite_program.warp_size,
            params=params,
        )


# ----------------------------------------------------------------------
# Property-based semantics
# ----------------------------------------------------------------------
_WARP = 8  # small warps keep the property launches fast
#: Examples per property: the budget pinned here, or the profile's when
#: that is larger (``--hypothesis-profile ci`` draws 1,000).
_EXAMPLES = max(20, settings.default.max_examples)


def _run_kernel(source: str, buffers: Dict[str, list]):
    session = BarracudaSession()
    from repro.cudac import compile_cuda

    module = compile_cuda(source)
    session.register_module(module)
    params = {}
    for name, values in buffers.items():
        addr = session.device.alloc(4 * len(values))
        session.device.memcpy_to_device(addr, values)
        params[name] = addr
    launch = session.launch(
        module.kernels[0].name,
        grid=1,
        block=_WARP,
        warp_size=_WARP,
        params=params,
        capture_records=True,
    )
    out = session.device.memcpy_from_device(params["out"], _WARP)
    return launch, out


@settings(max_examples=_EXAMPLES, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=15),
    mask=st.integers(min_value=1, max_value=(1 << _WARP) - 1),
)
def test_shfl_bfly_round_trips_values_without_memory_events(offset, mask):
    """Any membermask selecting at least one live lane, any lane offset:
    the butterfly shuffle returns lane ``i ^ offset``'s value to in-mask
    lanes whose partner is also a live mask lane, and the defined
    own-value fallback everywhere else — and the record stream contains
    only the explicit global load and store, identically on both
    engines."""
    source = f"""
__global__ void bfly(int* data, int* out) {{
    int v = data[threadIdx.x];
    int r = __shfl_xor_sync({mask:#x}, v, {offset});
    out[threadIdx.x] = r;
}}
"""
    data = [7 * i + 3 for i in range(_WARP)]
    streams = {}
    for engine, substituted in _ENGINES.items():
        with substituted():
            launch, out = _run_kernel(source, {"data": data, "out": [0] * _WARP})
        assert launch.reports.races == []
        kinds = [record.kind for record in launch.captured_records]
        assert kinds == [RecordKind.LOAD, RecordKind.STORE]
        expected = []
        for lane in range(_WARP):
            partner = lane ^ offset
            if (
                mask & (1 << lane)
                and partner < _WARP
                and mask & (1 << partner)
            ):
                expected.append(data[partner])
            else:
                expected.append(data[lane])
        assert out == expected
        streams[engine] = launch.captured_records
    assert streams["oracle"] == streams["production"]


@settings(max_examples=_EXAMPLES, deadline=None)
@given(
    copies=st.integers(min_value=1, max_value=3),
    commit_after_each=st.booleans(),
    extra_waits=st.integers(min_value=0, max_value=2),
)
def test_cp_async_wait0_before_read_never_false_races(
    copies, commit_after_each, extra_waits
):
    """Any commit/wait interleaving whose ``wait_group 0`` precedes the
    barrier and the cross-read is race-free: the completion edge always
    lands before the barrier, on both engines, with identical streams."""
    body = []
    for index in range(copies):
        body.append(
            f"    __pipeline_memcpy_async(&tile{index}[threadIdx.x], "
            f"&src[threadIdx.x], 4);"
        )
        if commit_after_each:
            body.append("    __pipeline_commit();")
    if not commit_after_each:
        body.append("    __pipeline_commit();")
    body.append("    __pipeline_wait_prior(0);")
    for _ in range(extra_waits):
        body.append("    __pipeline_wait_prior(0);")
    body.append("    __syncthreads();")
    reads = " + ".join(
        f"tile{index}[{_WARP - 1} - threadIdx.x]" for index in range(copies)
    )
    body.append(f"    out[threadIdx.x] = {reads};")
    tiles = "\n".join(
        f"    __shared__ int tile{index}[{_WARP}];" for index in range(copies)
    )
    source = (
        "__global__ void pipelined(int* src, int* out) {\n"
        + tiles
        + "\n"
        + "\n".join(body)
        + "\n}\n"
    )
    data = list(range(10, 10 + _WARP))
    streams = {}
    for engine, substituted in _ENGINES.items():
        with substituted():
            launch, out = _run_kernel(source, {"src": data, "out": [0] * _WARP})
        assert launch.reports.races == []
        assert out == [copies * data[_WARP - 1 - i] for i in range(_WARP)]
        streams[engine] = launch.captured_records
    assert streams["oracle"] == streams["production"]


@settings(max_examples=_EXAMPLES, deadline=None)
@given(
    mask=st.integers(min_value=1, max_value=(1 << _WARP) - 1),
    threshold=st.integers(min_value=0, max_value=_WARP),
)
def test_ballot_joins_exactly_the_mask_lanes(mask, threshold):
    """__ballot_sync returns the vote bits of the mask's live lanes to
    in-mask lanes and the defined 0 fallback to the rest — with no memory
    events beyond the explicit store."""
    source = f"""
__global__ void ballot(int* out) {{
    int b = __ballot_sync({mask:#x}, threadIdx.x < {threshold});
    out[threadIdx.x] = b;
}}
"""
    ballot = 0
    for lane in range(_WARP):
        if mask & (1 << lane) and lane < threshold:
            ballot |= 1 << lane
    expected = [
        ballot if mask & (1 << lane) else 0 for lane in range(_WARP)
    ]
    for substituted in _ENGINES.values():
        with substituted():
            launch, out = _run_kernel(source, {"out": [0] * _WARP})
        assert launch.reports.races == []
        assert out == expected
        kinds = [record.kind for record in launch.captured_records]
        assert kinds == [RecordKind.STORE]
