"""Race report construction and classification (§4.3.3)."""

import pytest

from repro.core.races import (
    AccessType,
    BarrierDivergenceReport,
    DetectorConfig,
    DetectorReports,
    RaceKind,
    RaceReport,
    classify,
    config_from_payload,
    config_to_payload,
)
from repro.errors import ProtocolError
from repro.trace import GridLayout, global_loc, shared_loc

LAYOUT = GridLayout(num_blocks=2, threads_per_block=8, warp_size=4)
X = global_loc(0x40)


def _race(current, prior, amask=None):
    return classify(
        LAYOUT, X, current, AccessType.WRITE, prior, AccessType.READ,
        current_amask=amask,
    )


def test_same_warp_is_divergence_kind():
    assert _race(0, 2).kind is RaceKind.DIVERGENCE


def test_same_block_different_warp_is_intra_block():
    assert _race(0, 5).kind is RaceKind.INTRA_BLOCK


def test_different_blocks_is_inter_block():
    assert _race(0, 9).kind is RaceKind.INTER_BLOCK


def test_branch_ordering_requires_inactive_peer():
    # Prior thread in the same warp but not in the current active mask:
    # the conflict crosses branch paths.
    report = _race(0, 2, amask=frozenset({0, 1}))
    assert report.branch_ordering
    report = _race(0, 1, amask=frozenset({0, 1}))
    assert not report.branch_ordering


def test_branch_ordering_never_across_warps():
    report = _race(0, 5, amask=frozenset({0, 1}))
    assert not report.branch_ordering


def test_report_rendering():
    report = _race(0, 9)
    text = str(report)
    assert "inter-block" in text
    assert "t0" in text and "t9" in text
    branchy = _race(0, 2, amask=frozenset({0}))
    assert "branch ordering" in str(branchy)


def test_divergence_report_rendering():
    report = BarrierDivergenceReport(block=1, missing=frozenset({9, 10}))
    assert "block 1" in str(report)
    assert "[9, 10]" in str(report)


def test_reports_accumulator():
    reports = DetectorReports()
    reports.races.append(_race(0, 9))
    reports.races.append(_race(1, 9))
    reports.barrier_divergences.append(
        BarrierDivergenceReport(block=0, missing=frozenset({3}))
    )
    reports.filtered_same_value = 2
    assert reports.racy_locations == {X}
    reports.clear()
    assert not reports.races
    assert not reports.barrier_divergences
    assert reports.filtered_same_value == 0


def test_shared_location_rendering():
    loc = shared_loc(1, 0x10)
    report = classify(LAYOUT, loc, 8, AccessType.ATOMIC, 12, AccessType.WRITE)
    assert "shared[b1]" in str(report)
    assert "atomic" in str(report)


# ----------------------------------------------------------------------
# DetectorConfig and its wire codec
# ----------------------------------------------------------------------
def test_config_round_trips_through_its_payload():
    config = DetectorConfig(filter_same_value=False, granularity_bytes=1,
                            provenance_depth=3)
    assert config_from_payload(config_to_payload(config)) == config
    assert config_from_payload(None) == DetectorConfig()


@pytest.mark.parametrize("field, value", [
    ("granularity_bytes", 0), ("granularity_bytes", -4),
    ("provenance_depth", -1),
])
def test_config_rejects_values_no_detector_can_run(field, value):
    with pytest.raises(ValueError, match=field):
        DetectorConfig(**{field: value})
    with pytest.raises(ProtocolError, match="malformed detector config"):
        config_from_payload({field: value})


def test_config_lives_with_the_reports_and_is_one_class():
    import repro.core
    import repro.core.reference
    import repro.service.protocol

    assert DetectorConfig.__module__ == "repro.core.races"
    assert repro.core.DetectorConfig is DetectorConfig
    assert repro.core.reference.DetectorConfig is DetectorConfig
    assert repro.service.protocol.DetectorConfig is DetectorConfig
