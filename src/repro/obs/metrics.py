"""A dependency-free metrics registry with Prometheus-style exposition.

Four instrument families, all supporting label dimensions:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — point-in-time values (set, not accumulated);
* :class:`Histogram` — cumulative-bucket distributions with ``_sum`` and
  ``_count`` series, exactly the Prometheus histogram layout;
* :class:`TopK` — bounded hot-item profiles (hot PTX instructions, hot
  addresses); only the top K items by count are exposed.

A :class:`MetricsRegistry` hands out instruments by name (idempotent, so
independent layers can share series), renders the whole registry as
Prometheus text exposition (:meth:`MetricsRegistry.render_prometheus`)
and as a JSON-able :meth:`MetricsRegistry.snapshot`.

The :data:`NULL_METRICS` registry is the default everywhere: disabled,
and every instrument it returns is a shared no-op, so the hot path pays
one flag check when metrics are off.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram bucket boundaries (powers of four — wide dynamic
#: range with few series; queue depths and cycle counts both fit).
DEFAULT_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384)

#: Default retained-item bound for TopK instruments.
DEFAULT_TOP_K = 10


def _label_key(labelnames: Sequence[str], labels: dict) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {tuple(labelnames)}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_labels(labelnames: Sequence[str], key: Tuple[str, ...],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, key)) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Instrument:
    """Shared bookkeeping: name, help text, label dimensions."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _series(self):  # pragma: no cover - interface
        raise NotImplementedError

    def expose(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(self._series())
        return lines


class Counter(_Instrument):
    kind = "counter"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self.values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self.values[key] = self.values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_label_key(self.labelnames, labels), 0)

    def _series(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labelnames, key)} "
            f"{_format_value(value)}"
            for key, value in sorted(self.values.items())
        ]

    def snapshot_values(self):
        return {
            ",".join(key) if key else "": value
            for key, value in sorted(self.values.items())
        }


class Gauge(Counter):
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


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, name, help="", labelnames=(),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        # key -> [per-bucket counts..., +Inf count]
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[bisect_left(self.buckets, value)] += 1
            self._sums[key] += value

    def count(self, **labels) -> int:
        return sum(self._counts.get(_label_key(self.labelnames, labels), ()))

    def sum(self, **labels) -> float:
        return self._sums.get(_label_key(self.labelnames, labels), 0.0)

    def _series(self) -> List[str]:
        lines = []
        for key in sorted(self._counts):
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                labels = _render_labels(self.labelnames, key,
                                        (("le", _format_value(float(bound))),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += self._counts[key][-1]
            labels = _render_labels(self.labelnames, key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} "
                         f"{_format_value(self._sums[key])}")
            lines.append(f"{self.name}_count{plain} {cumulative}")
        return lines

    def snapshot_values(self):
        out = {}
        for key in sorted(self._counts):
            label = ",".join(key) if key else ""
            out[label] = {
                "count": sum(self._counts[key]),
                "sum": self._sums[key],
                "buckets": {
                    _format_value(float(bound)): count
                    for bound, count in zip(self.buckets, self._counts[key])
                },
            }
        return out


class TopK(_Instrument):
    """Hot-item profile: counts per key, exposing only the top K.

    Exposed as a gauge family with the item under the ``item`` label —
    the conventional shape for bounded-cardinality hot-set metrics.
    """

    kind = "gauge"

    def __init__(self, name, help="", labelnames=(), k: int = DEFAULT_TOP_K):
        super().__init__(name, help, labelnames)
        self.k = k
        self._items: Dict[Tuple[str, ...], Dict[str, int]] = {}

    def observe(self, item, amount: int = 1, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            items = self._items.setdefault(key, {})
            items[str(item)] = items.get(str(item), 0) + amount

    def top(self, **labels) -> List[Tuple[str, int]]:
        items = self._items.get(_label_key(self.labelnames, labels), {})
        ordered = sorted(items.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[: self.k]

    def _series(self) -> List[str]:
        lines = []
        for key in sorted(self._items):
            ordered = sorted(self._items[key].items(),
                             key=lambda kv: (-kv[1], kv[0]))[: self.k]
            for item, count in ordered:
                labels = _render_labels(self.labelnames, key,
                                        (("item", item),))
                lines.append(f"{self.name}{labels} {count}")
        return lines

    def snapshot_values(self):
        return {
            ",".join(key) if key else "": dict(self.top(
                **dict(zip(self.labelnames, key))))
            for key in sorted(self._items)
        }


class MetricsRegistry:
    """All instruments of one process/session, keyed by metric name."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, labelnames, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls) and not (
                cls is Counter and isinstance(instrument, Counter)
            ):
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

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labelnames, buckets=buckets)

    def topk(self, name: str, help: str = "",
             labelnames: Sequence[str] = (), k: int = DEFAULT_TOP_K) -> TopK:
        return self._get(TopK, name, help, labelnames, k=k)

    def reset(self, keep: Sequence[str] = ()) -> None:
        """Forget every instrument except ``keep``, whose samples are
        cleared but whose handles stay valid.

        For processes that inherit a parent's registry state (a
        fork-started shard worker, an inline pool reusing the server
        process): pre-resolved instruments survive the reset, anything
        registered by a previous lifetime is dropped.
        """
        kept_names = set(keep)
        with self._lock:
            self._instruments = {
                name: instrument
                for name, instrument in self._instruments.items()
                if name in kept_names
            }
            for instrument in self._instruments.values():
                if isinstance(instrument, Counter):
                    instrument.values.clear()
                elif isinstance(instrument, Histogram):
                    instrument._counts.clear()
                    instrument._sums.clear()
                elif isinstance(instrument, TopK):
                    instrument._items.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            instruments = [self._instruments[name]
                           for name in sorted(self._instruments)]
        for instrument in instruments:
            lines.extend(instrument.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-able view: {name: {type, help, labels, values}}."""
        with self._lock:
            instruments = [self._instruments[name]
                           for name in sorted(self._instruments)]
        return {
            instrument.name: {
                "type": instrument.kind if not isinstance(instrument, TopK)
                else "topk",
                "help": instrument.help,
                "labels": list(instrument.labelnames),
                "values": instrument.snapshot_values(),
            }
            for instrument in instruments
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
        distinguishable.  Counter values add, gauges overwrite, top-K
        counts add, and histograms are restored bucket-exactly when the
        boundaries line up (they do between workers running the same
        code) with a per-sample ``observe`` fallback when they don't.
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
                elif kind == "topk":
                    instrument = self.topk(name, help_text, labelnames)
                    for item, count in value.items():
                        instrument.observe(item, count, **labels)
                elif kind == "histogram":
                    self._merge_histogram(name, help_text, labelnames,
                                          labels, value)

    def _merge_histogram(self, name, help_text, labelnames,
                         labels, value) -> None:
        buckets = value.get("buckets", {})
        try:
            bounds = tuple(sorted(float(bound) for bound in buckets))
        except (TypeError, ValueError):
            return
        instrument = self.histogram(name, help_text, labelnames,
                                    buckets=bounds or DEFAULT_BUCKETS)
        total = int(value.get("count", 0))
        in_buckets = sum(int(count) for count in buckets.values())
        key = _label_key(instrument.labelnames, labels)
        with instrument._lock:
            counts = instrument._counts.get(key)
            if counts is None:
                counts = [0] * (len(instrument.buckets) + 1)
                instrument._counts[key] = counts
                instrument._sums[key] = 0.0
            if tuple(float(b) for b in instrument.buckets) == bounds:
                for bound, count in buckets.items():
                    counts[bisect_left(instrument.buckets,
                                       float(bound))] += int(count)
                counts[-1] += max(0, total - in_buckets)
            else:  # boundary mismatch: approximate by re-observing
                for bound, count in buckets.items():
                    index = bisect_left(instrument.buckets, float(bound))
                    counts[index] += int(count)
                counts[-1] += max(0, total - in_buckets)
            instrument._sums[key] += float(value.get("sum", 0.0))


class _NullInstrument:
    """One shared do-nothing instrument standing in for every family."""

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

    def observe(self, *args, **kwargs):
        pass

    def value(self, **labels):
        return 0

    def count(self, **labels):
        return 0

    def sum(self, **labels):
        return 0.0

    def top(self, **labels):
        return []


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

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def topk(self, name, help="", labelnames=(), k=DEFAULT_TOP_K):
        return _NULL_INSTRUMENT

    def render_prometheus(self) -> str:
        return ""

    def snapshot(self) -> dict:
        return {}


#: Shared disabled registry; the default wherever metrics are accepted.
NULL_METRICS = NullMetricsRegistry()


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Inf|NaN))$"
)


def parse_exposition(text: str) -> Dict[str, List[Tuple[dict, float]]]:
    """Parse Prometheus text exposition; returns {name: [(labels, value)]}.

    Strict enough to catch format regressions (used by the CI smoke step
    and the tests); raises :class:`ValueError` on any malformed line.
    """
    samples: Dict[str, List[Tuple[dict, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        labels = {}
        raw = match.group("labels")
        if raw:
            body = raw[1:-1]
            if body:
                for pair in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', body):
                    labels[pair[0]] = pair[1]
        samples.setdefault(match.group("name"), []).append(
            (labels, float(match.group("value")))
        )
    return samples


def lint_metric_names(text: str, prefix: str = "repro_") -> List[str]:
    """Naming lint over a Prometheus exposition; returns violations.

    Enforces the repo's conventions: every metric family carries the
    one ``repro_`` prefix, counters end in ``_total``, and
    non-counters don't (the Prometheus histogram series suffixes
    ``_bucket``/``_sum``/``_count`` are generated, not declared, so the
    lint runs on ``# TYPE`` declarations).  An empty return means the
    exposition is clean; tests assert exactly that.
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
