"""Race reports and their classification (§4.3.3).

When the host-side detector flags a race it examines the offending TIDs to
classify it as a *divergence* (intra-warp) race, an *intra-block* race or
an *inter-block* race.  Same-warp races between threads on different
branch paths are additionally tagged as *branch ordering* races, the new
bug class the paper identifies (§3.3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..obs.provenance import RaceProvenance, StaticPrediction
from ..trace.layout import GridLayout
from ..errors import ProtocolError
from ..trace.operations import Location, Space


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RaceKind(enum.Enum):
    """Classification by the relationship of the racing threads."""

    DIVERGENCE = "divergence"  # same warp
    INTRA_BLOCK = "intra-block"  # same block, different warps
    INTER_BLOCK = "inter-block"  # different blocks

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RaceReport:
    """One detected data race.

    ``prior`` describes the access recorded in shadow memory that the
    ``current`` access conflicted with.
    """

    loc: Location
    current_tid: int
    current_access: AccessType
    prior_tid: int
    prior_access: AccessType
    kind: RaceKind
    #: True when the racing threads are in the same warp but on different
    #: branch paths — a branch ordering race.
    branch_ordering: bool = False
    current_pc: int = -1
    prior_pc: int = -1
    #: Attached evidence (recent accesses + the failed clock check) when
    #: the detector ran with ``provenance_depth > 0``.  Excluded from
    #: equality/hashing: two reports of the same race stay equal whether
    #: or not provenance was collected.
    provenance: Optional[RaceProvenance] = field(
        default=None, compare=False, repr=False
    )
    #: Set when the static lint flagged the same PTX location before the
    #: program ever ran ("statically predicted").  Compare-excluded for
    #: the same reason as provenance.
    static_prediction: Optional[StaticPrediction] = field(
        default=None, compare=False, repr=False
    )
    #: True when this report came from the predictive layer
    #: (``repro.predict``) rather than the observed schedule.  Compare-
    #: excluded so a predicted race deduplicates against the identical
    #: observed one.
    predicted: bool = field(default=False, compare=False)
    #: Predictive confirmation status: ``True`` once a witness schedule
    #: deterministically reproduced the race, ``False`` for an
    #: unconfirmed prediction, ``None`` for ordinary observed races.
    confirmed: Optional[bool] = field(default=None, compare=False)
    #: The :class:`~repro.predict.witness.WitnessSchedule` that reproduces
    #: this race (present on confirmed predictive findings).  Typed
    #: loosely to keep ``repro.core`` free of a ``repro.predict`` import.
    witness: Optional[object] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        tag = " (branch ordering)" if self.branch_ordering else ""
        if self.predicted:
            status = "confirmed" if self.confirmed else "unconfirmed"
            tag += f" [predicted, {status}]"
        return (
            f"{self.kind} race{tag} on {self.loc}: "
            f"{self.prior_access} by t{self.prior_tid} vs "
            f"{self.current_access} by t{self.current_tid}"
        )


@dataclass(frozen=True)
class BarrierDivergenceReport:
    """``bar.sync`` executed while some threads of the block were inactive.

    Nvidia documents this as likely "to hang or produce unintended side
    effects"; BARRACUDA reports it as an error (§3.3.2).
    """

    block: int
    missing: FrozenSet[int]
    pc: int = -1

    def __str__(self) -> str:
        return (
            f"barrier divergence in block {self.block}: threads "
            f"{sorted(self.missing)} inactive at bar.sync"
        )


def classify(
    layout: GridLayout,
    loc: Location,
    current_tid: int,
    current_access: AccessType,
    prior_tid: int,
    prior_access: AccessType,
    current_amask: Optional[FrozenSet[int]] = None,
    current_pc: int = -1,
    prior_pc: int = -1,
    provenance: Optional[RaceProvenance] = None,
) -> RaceReport:
    """Build a classified :class:`RaceReport` from the offending TIDs."""
    same_warp = layout.warp_of(current_tid) == layout.warp_of(prior_tid)
    if same_warp:
        kind = RaceKind.DIVERGENCE
    elif layout.block_of(current_tid) == layout.block_of(prior_tid):
        kind = RaceKind.INTRA_BLOCK
    else:
        kind = RaceKind.INTER_BLOCK
    branch_ordering = bool(
        same_warp and current_amask is not None and prior_tid not in current_amask
    )
    return RaceReport(
        loc=loc,
        current_tid=current_tid,
        current_access=current_access,
        prior_tid=prior_tid,
        prior_access=prior_access,
        kind=kind,
        branch_ordering=branch_ordering,
        current_pc=current_pc,
        prior_pc=prior_pc,
        provenance=provenance,
    )


@dataclass
class DetectorReports:
    """Accumulated findings of one detector run."""

    races: List[RaceReport] = field(default_factory=list)
    barrier_divergences: List[BarrierDivergenceReport] = field(default_factory=list)
    #: Same-value intra-warp write-write conflicts that were filtered as
    #: benign (kept for introspection and the filtering ablation).
    filtered_same_value: int = 0

    @property
    def racy_locations(self):
        return {race.loc for race in self.races}

    def clear(self) -> None:
        self.races.clear()
        self.barrier_divergences.clear()
        self.filtered_same_value = 0


@dataclass
class DetectorConfig:
    """Knobs shared by the reference and production detectors."""

    #: Filter benign same-value intra-warp write-write conflicts (§3.3.1).
    filter_same_value: bool = True
    #: Shadow-cell size in bytes for expanding memory accesses.  4 matches
    #: the aligned word accesses of essentially all benchmarks (§4.3.3);
    #: 1 is the paper's fully general byte-granularity mode, which also
    #: catches partially-overlapping sub-word accesses.
    granularity_bytes: int = 4
    #: Per-thread access-history depth retained for race provenance
    #: (``repro explain``).  0 disables provenance tracking entirely —
    #: the default, so the hot path stays free of history bookkeeping.
    provenance_depth: int = 0

    def __post_init__(self) -> None:
        # Both arrive from the wire (``config_from_payload``), and a cell
        # size below one byte has no cell expansion.
        if self.granularity_bytes < 1:
            raise ValueError(
                f"granularity_bytes must be >= 1, got {self.granularity_bytes}")
        if self.provenance_depth < 0:
            raise ValueError(
                f"provenance_depth must be >= 0, got {self.provenance_depth}")


# ----------------------------------------------------------------------
# Payload codec: the JSON-safe form reports take in job results, capture
# replies and service frames
# ----------------------------------------------------------------------
def config_to_payload(config: DetectorConfig) -> dict:
    return {
        "filter_same_value": config.filter_same_value,
        "granularity_bytes": config.granularity_bytes,
        "provenance_depth": config.provenance_depth,
    }


def config_from_payload(payload: Optional[dict]) -> DetectorConfig:
    if not payload:
        return DetectorConfig()
    try:
        return DetectorConfig(
            filter_same_value=bool(payload.get("filter_same_value", True)),
            granularity_bytes=int(payload.get("granularity_bytes", 4)),
            provenance_depth=int(payload.get("provenance_depth", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed detector config: {exc}") from exc


def location_to_payload(loc: Location) -> list:
    return [loc.space.value, loc.offset, loc.block]


def location_from_payload(payload: Sequence) -> Location:
    space, offset, block = payload
    return Location(Space(space), offset, block)


def race_sort_key(race: RaceReport) -> Tuple:
    """Total order over race reports used for deterministic merging."""
    return (
        race.loc.space.value,
        race.loc.block,
        race.loc.offset,
        race.current_pc,
        race.prior_pc,
        race.current_tid,
        race.prior_tid,
        race.kind.value,
        race.current_access.value,
        race.prior_access.value,
    )


def divergence_sort_key(report: BarrierDivergenceReport) -> Tuple:
    """Total order over barrier-divergence reports."""
    return (report.block, report.pc, sorted(report.missing))


def race_to_payload(race: RaceReport) -> dict:
    """Serialize one race report, including predictive metadata."""
    payload = {
        "loc": location_to_payload(race.loc),
        "current_tid": race.current_tid,
        "current_access": race.current_access.value,
        "prior_tid": race.prior_tid,
        "prior_access": race.prior_access.value,
        "kind": race.kind.value,
        "branch_ordering": race.branch_ordering,
        "current_pc": race.current_pc,
        "prior_pc": race.prior_pc,
    }
    if race.predicted:
        payload["predicted"] = True
        payload["confirmed"] = bool(race.confirmed)
    if race.witness is not None:
        payload["witness"] = race.witness.to_payload()
    return payload


def race_from_payload(payload: dict) -> RaceReport:
    """Deserialize one race report (the inverse of :func:`race_to_payload`)."""
    witness = None
    if payload.get("witness") is not None:
        # Local import: repro.predict imports this module for payload
        # serialization, so the reverse dependency must stay lazy.
        from ..predict.witness import WitnessSchedule

        witness = WitnessSchedule.from_payload(payload["witness"])
    return RaceReport(
        loc=location_from_payload(payload["loc"]),
        current_tid=payload["current_tid"],
        current_access=AccessType(payload["current_access"]),
        prior_tid=payload["prior_tid"],
        prior_access=AccessType(payload["prior_access"]),
        kind=RaceKind(payload["kind"]),
        branch_ordering=payload.get("branch_ordering", False),
        current_pc=payload.get("current_pc", -1),
        prior_pc=payload.get("prior_pc", -1),
        predicted=payload.get("predicted", False),
        confirmed=payload.get("confirmed") if "confirmed" in payload else None,
        witness=witness,
    )


def reports_to_payload(reports: DetectorReports) -> dict:
    """Serialize a :class:`DetectorReports`, sorting races deterministically.

    The sort is what makes cross-worker merging order-insensitive: no
    matter how batches were interleaved across pool shards, identical
    findings serialize identically.
    """
    return {
        "races": [
            race_to_payload(race)
            for race in sorted(reports.races, key=race_sort_key)
        ],
        "barrier_divergences": [
            {
                "block": report.block,
                "missing": sorted(report.missing),
                "pc": report.pc,
            }
            for report in sorted(reports.barrier_divergences,
                                 key=divergence_sort_key)
        ],
        "filtered_same_value": reports.filtered_same_value,
    }


def reports_from_payload(payload: dict) -> DetectorReports:
    try:
        races = [race_from_payload(race) for race in payload.get("races", [])]
        divergences = [
            BarrierDivergenceReport(
                block=report["block"],
                missing=frozenset(report["missing"]),
                pc=report.get("pc", -1),
            )
            for report in payload.get("barrier_divergences", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed report payload: {exc}") from exc
    return DetectorReports(
        races=races,
        barrier_divergences=divergences,
        filtered_same_value=payload.get("filtered_same_value", 0),
    )
