"""The Theorem 1 property tests: three implementations, one verdict.

Three independently-implemented detectors must agree on every feasible
trace:

* the *visible-race oracle* (:func:`find_visible_races`): a declarative
  simulation of which conflicting pairs the algorithm's shadow metadata
  can observe, with ordering computed by explicit graph reachability;
* the *reference detector*: the paper's operational semantics with
  uncompressed per-thread vector clocks;
* the *production detector*: compressed PTVCs, structured clocks, shadow
  memory with a page table and ranged cells — the fused loop production
  runs, fed the trace packed into rows by :func:`repro.columnar.ops_to_rows`
  (the generator puts half the instructions on consecutive words, so the
  range path is exercised too).

Additionally, against the fully declarative §3.2 oracle
(:func:`find_races`):

* no false positives: every reported race is a real racing pair;
* completeness: a declaratively race-free trace produces no reports
  (this is the "well-synchronized ⟹ no race detected" direction of
  Theorem 1; the converse holds exactly up to the documented
  atomic-shadowing approximation).

The same verdicts are then held on whole programs: every corpus entry's
captured row log, expanded once by :func:`repro.columnar.rows_to_ops`.
"""

import pytest
from hypothesis import given, settings

from repro.columnar import rows_to_ops
from repro.core import BarracudaDetector, ReferenceDetector
from repro.core.reference import DetectorConfig
from repro.core.syncorder import find_barrier_divergence, find_races, find_visible_races
from repro.jobs import launch_spec
from repro.predict import trace_from_rows
from test_columnar import CAPTURE_CORPUS
from tracegen import feasible_traces


#: Examples per property: the budget pinned here, or the profile's when
#: that is larger (``--hypothesis-profile ci`` draws 1,000).
_EXAMPLES = max(200, settings.default.max_examples)
_FEWER_EXAMPLES = max(150, settings.default.max_examples)


def _pairs(trace, spec_races):
    return {
        (r.loc, frozenset((trace.ops[r.first_index].tid, trace.ops[r.second_index].tid)))
        for r in spec_races
    }


def _report_pairs(reports):
    return {(r.loc, frozenset((r.prior_tid, r.current_tid))) for r in reports.races}


@settings(max_examples=_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_three_detectors_agree_pair_for_pair(trace):
    visible = _pairs(trace, find_visible_races(trace))
    reference = ReferenceDetector(trace.layout).process_trace(trace)
    production = BarracudaDetector(trace.layout).process_trace(trace)
    assert _report_pairs(reference) == visible
    assert _report_pairs(production) == visible


def _report_fields(reports):
    """Each report as the pair of accesses it names: location, threads,
    pcs and access types."""
    return {(r.loc, r.prior_tid, r.current_tid, r.prior_pc, r.current_pc,
             r.prior_access, r.current_access) for r in reports.races}


@settings(max_examples=_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_production_and_reference_name_the_same_accesses(trace):
    """Beyond the pair: both detectors blame the same instruction and
    access type on each side (every generated instruction has its own
    pc)."""
    reference = ReferenceDetector(trace.layout).process_trace(trace)
    production = BarracudaDetector(trace.layout).process_trace(trace)
    assert _report_fields(production) == _report_fields(reference)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_no_false_positives_against_declarative_oracle(trace):
    declarative = _pairs(trace, find_races(trace))
    production = BarracudaDetector(trace.layout).process_trace(trace)
    assert _report_pairs(production) <= declarative


@settings(max_examples=_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_race_free_traces_stay_silent(trace):
    if find_races(trace):
        return
    reports = BarracudaDetector(trace.layout).process_trace(trace)
    assert reports.races == []


@settings(max_examples=_FEWER_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_barrier_divergence_agreement(trace):
    expected = len(find_barrier_divergence(trace))
    reference = ReferenceDetector(trace.layout).process_trace(trace)
    production = BarracudaDetector(trace.layout).process_trace(trace)
    assert len(reference.barrier_divergences) == expected
    assert len(production.barrier_divergences) == expected


@settings(max_examples=_FEWER_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_same_value_filter_agreement(trace):
    """With the filter disabled, all three still agree."""
    config = DetectorConfig(filter_same_value=False)
    visible = _pairs(trace, find_visible_races(trace, filter_same_value=False))
    reference = ReferenceDetector(trace.layout, config).process_trace(trace)
    production = BarracudaDetector(trace.layout, config).process_trace(trace)
    assert _report_pairs(reference) == visible
    assert _report_pairs(production) == visible


@settings(max_examples=_FEWER_EXAMPLES, deadline=None)
@given(feasible_traces())
def test_filter_only_removes_same_value_write_pairs(trace):
    """The filtered detector reports a subset of the unfiltered one, and
    the difference consists of write-write pairs only."""
    filtered = BarracudaDetector(trace.layout).process_trace(trace)
    unfiltered = BarracudaDetector(
        trace.layout, DetectorConfig(filter_same_value=False)
    ).process_trace(trace)
    filtered_pairs = _report_pairs(filtered)
    unfiltered_pairs = _report_pairs(unfiltered)
    assert filtered_pairs <= unfiltered_pairs
    removed_kinds = {
        (r.prior_access.value, r.current_access.value)
        for r in unfiltered.races
        if (r.loc, frozenset((r.prior_tid, r.current_tid))) not in filtered_pairs
    }
    assert removed_kinds <= {("write", "write")}


# ----------------------------------------------------------------------
# Theorem 1 on whole programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entry", CAPTURE_CORPUS, ids=lambda entry: entry.name)
def test_theorem1_holds_on_every_corpus_program(entry):
    """The live launch, the fused loop over its row log, the reference
    detector and the visible-race oracle over the §3.1 trace those rows
    expand to report the same pairs; the declarative §3.2 oracle holds
    every one of them."""
    launch = launch_spec(entry.spec, capture=True).launch
    layout = entry.spec.layout()
    fused = BarracudaDetector(layout)
    reference = ReferenceDetector(layout)
    for batch in launch.captured:
        fused.process_columnar(batch)
        for op in rows_to_ops(batch, layout):
            reference.process(op)
    trace = trace_from_rows(launch.captured, layout)
    visible = _pairs(trace, find_visible_races(trace))
    production = _report_pairs(launch.reports)
    assert production == visible
    assert _report_pairs(fused.reports) == visible
    assert _report_pairs(reference.reports) == visible
    assert production <= _pairs(trace, find_races(trace))
