"""The BARRACUDA race detection algorithm and its supporting structures."""

from .detector import BarracudaDetector
from .ptvc import PTVCFormat, PTVCManager, PTVCStats
from .races import (
    AccessType,
    BarrierDivergenceReport,
    DetectorConfig,
    DetectorReports,
    RaceKind,
    RaceReport,
)
from .reference import ReferenceDetector
from .shadow import ShadowEntry, ShadowMemory, ShadowStats
from .structured import StructuredVC
from .syncmap import SyncLocation, SyncLocationMap
from .syncorder import (
    SpecRace,
    SyncOrder,
    find_barrier_divergence,
    find_races,
    racy_locations,
)
from .vectorclock import Epoch, VectorClock, join_all
