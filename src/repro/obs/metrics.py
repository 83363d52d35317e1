"""A dependency-free metrics registry with Prometheus-style exposition.

Two instrument families, both supporting label dimensions:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — point-in-time values (set, not accumulated).

Every series is a reading of state a pipeline stage already keeps
(``QueueStats``, ``ShadowStats``, ``PTVCStats``, ``DetectorReports``, the
service's ``WorkerStats``/``JobStats``, ...), published once when the stage
ends; no instrument sits on a per-record path.

A :class:`MetricsRegistry` hands out instruments by name (idempotent, so
independent layers can share series), renders the whole registry as
Prometheus text exposition (:meth:`MetricsRegistry.render_prometheus`)
and as a JSON-able :meth:`MetricsRegistry.snapshot`;
:func:`parse_exposition` reads the text back.

The :data:`NULL_METRICS` registry is the default everywhere: disabled,
and every instrument it returns is a shared no-op, so a stage that
publishes pays one flag check when metrics are off.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(labelnames: Sequence[str], labels: dict) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {tuple(labelnames)}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_labels(labelnames: Sequence[str], key: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"'
                     for name, value in zip(labelnames, key))
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    """Invert :func:`_escape`: ``\\n`` is a newline, ``\\x`` is ``x``."""
    return re.sub(r"\\(.)",
                  lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def _format_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Counter:
    """A monotonically increasing total per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.values: Dict[Tuple[str, ...], float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self.values[key] = self.values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_label_key(self.labelnames, labels), 0)

    def expose(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}"] if self.help else []
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(
            f"{self.name}{_render_labels(self.labelnames, key)} "
            f"{_format_value(value)}"
            for key, value in sorted(self.values.items())
        )
        return lines

    def snapshot_values(self):
        return {
            ",".join(key) if key else "": value
            for key, value in sorted(self.values.items())
        }


class Gauge(Counter):
    """A point-in-time value per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self.values[key] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self.values[key] = self.values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)


class MetricsRegistry:
    """All instruments of one process/session, keyed by metric name."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name, help, labelnames):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, labelnames)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get(Gauge, name, help, labelnames)

    def reset(self) -> None:
        """Forget every instrument.

        For processes that inherit a parent's registry state (a
        fork-started shard worker, an inline pool reusing the server
        process): whatever a previous lifetime registered is dropped.
        """
        with self._lock:
            self._instruments = {}

    def _sorted_instruments(self) -> List[Counter]:
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for instrument in self._sorted_instruments():
            lines.extend(instrument.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-able view: {name: {type, help, labels, values}}."""
        return {
            instrument.name: {
                "type": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.labelnames),
                "values": instrument.snapshot_values(),
            }
            for instrument in self._sorted_instruments()
        }

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge_snapshot(self, snapshot: dict,
                       extra_labels: Optional[Dict[str, str]] = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used by the service's STATUS verb to aggregate the shard
        workers' registries into the server view: each worker snapshot
        is merged with ``extra_labels={"shard": "<n>"}`` so series stay
        distinguishable.  Counter values add and gauges overwrite.
        """
        extra = dict(extra_labels or {})
        extra_names = tuple(sorted(extra))
        for name, family in snapshot.items():
            labelnames = tuple(family.get("labels", ())) + extra_names
            kind = family.get("type", "untyped")
            help_text = family.get("help", "")
            values = family.get("values", {})
            for label_key, value in values.items():
                parts = tuple(label_key.split(",")) if label_key else ()
                if len(parts) != len(family.get("labels", ())):
                    continue  # snapshot label key we cannot decode
                labels = dict(zip(family.get("labels", ()), parts))
                labels.update(extra)
                if kind == "counter":
                    self.counter(name, help_text, labelnames).inc(
                        value, **labels)
                elif kind == "gauge":
                    self.gauge(name, help_text, labelnames).set(
                        value, **labels)


class _NullInstrument:
    """One shared do-nothing instrument standing in for both families."""

    __slots__ = ()
    name = "null"
    help = ""
    labelnames = ()

    def inc(self, *args, **kwargs):
        pass

    def dec(self, *args, **kwargs):
        pass

    def set(self, *args, **kwargs):
        pass

    def value(self, **labels):
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Permanently-disabled registry: every instrument is a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        pass

    def counter(self, name, help="", labelnames=()):
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labelnames=()):
        return _NULL_INSTRUMENT

    def render_prometheus(self) -> str:
        return ""

    def snapshot(self) -> dict:
        return {}


#: Shared disabled registry; the default wherever metrics are accepted.
NULL_METRICS = NullMetricsRegistry()


#: A quoted label value: anything but a quote or backslash, or an escape.
_QUOTED = r'"(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{(?:[^}\"]|" + _QUOTED + r")*\})?\s+"
    r"(?P<value>[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Inf|NaN))$"
)
_LABEL_RE = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)=(" + _QUOTED + ")")


def parse_exposition(text: str) -> Dict[str, List[Tuple[dict, float]]]:
    """Parse Prometheus text exposition; returns {name: [(labels, value)]}.

    The inverse of :meth:`MetricsRegistry.render_prometheus`: label
    values come back unescaped, exactly as they were set.  Strict enough
    to catch format regressions (used by the CI smoke step and the
    tests); raises :class:`ValueError` on any malformed line.
    """
    samples: Dict[str, List[Tuple[dict, float]]] = {}
    # Lines end at "\n" only: a label value may hold any other character.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels = {
            name: _unescape(quoted[1:-1])
            for name, quoted in _LABEL_RE.findall(match.group("labels") or "")
        }
        samples.setdefault(match.group("name"), []).append(
            (labels, float(match.group("value")))
        )
    return samples


def lint_metric_names(text: str, prefix: str = "repro_") -> List[str]:
    """Naming lint over a Prometheus exposition; returns violations.

    Enforces the repo's conventions: every metric family carries the
    one ``repro_`` prefix, counters end in ``_total``, and
    non-counters don't.  The lint runs on ``# TYPE`` declarations.  An
    empty return means the exposition is clean; tests assert exactly
    that.
    """
    problems: List[str] = []
    for line in text.splitlines():
        if not line.startswith("# TYPE "):
            continue
        parts = line.split()
        if len(parts) != 4:
            problems.append(f"malformed TYPE line: {line!r}")
            continue
        _, _, name, kind = parts
        if not name.startswith(prefix):
            problems.append(f"{name}: missing {prefix!r} prefix")
        if kind == "counter" and not name.endswith("_total"):
            problems.append(f"{name}: counter without '_total' suffix")
        if kind != "counter" and name.endswith("_total"):
            problems.append(f"{name}: '_total' suffix on a {kind}")
    return problems
