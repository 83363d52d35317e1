"""The per-record detection oracle, driven from test code.

``record_to_ops`` → ``BarracudaDetector.process`` is the specification
the fused ``process_columnar`` loop is held to; no production path runs
it record by record any more, so the tests that need it share it here.
"""

from repro.core.detector import BarracudaDetector
from repro.core.reference import DetectorConfig
from repro.events import record_to_ops


def per_record_oracle(layout, records, config=None) -> BarracudaDetector:
    """Expand every record, ``process`` every op; returns the detector."""
    config = config or DetectorConfig()
    detector = BarracudaDetector(layout, config)
    for record in records:
        for op in record_to_ops(record, layout, config.granularity_bytes):
            detector.process(op)
    return detector
