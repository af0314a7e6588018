"""A small metrics registry: counters, gauges, and histograms.

Replaces the ad-hoc statistic fields that used to be scattered across
``FunctionStats``/``ExecResult`` consumers with named, labelled,
mergeable instruments.  Everything is in-process and dependency-free;
the registry renders to plain dicts for JSON export.

Instruments are keyed by ``(name, sorted labels)``, so
``registry.counter("eliminated", width=32)`` and
``registry.counter("eliminated", width=16)`` are distinct series of the
same metric family — the Prometheus naming model, minus the wire
format.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, key: _LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Power-of-two bucketed distribution with count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: bucket upper bound (2**k) -> observations <= bound
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bound = 1
        while bound < value:
            bound <<= 1
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for value in (other.min, other.max):
            if value is None:
                continue
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
        for bound, count in other.buckets.items():
            self.buckets[bound] = self.buckets.get(bound, 0) + count

    def quantile(self, q: float) -> float | None:
        """Estimate the q-quantile (0..1) from the bucket counts.

        Observations inside a bucket are assumed uniform between the
        bucket's edges (lower edge of bound ``2**k`` is ``2**(k-1)``,
        the first bucket starts at 0); the estimate is clamped to the
        observed ``[min, max]``, so exact values are returned for the
        extremes and single-observation histograms.
        """
        if self.count == 0 or self.min is None or self.max is None:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        rank = q * self.count
        seen = 0.0
        for bound, count in sorted(self.buckets.items()):
            if seen + count >= rank:
                lower = bound / 2 if bound > 1 else 0.0
                fraction = (rank - seen) / count
                estimate = lower + fraction * (bound - lower)
                return min(max(estimate, self.min), self.max)
            seen += count
        return self.max

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {str(b): c for b, c in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Holds all instruments; hands out one object per (name, labels)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        # Accessor creation must not race when a registry is shared by
        # the `repro serve` worker pool: without the lock two threads
        # could each create an instrument and one side's counts vanish.
        self._create_lock = threading.Lock()

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.setdefault(key, Histogram())
        return instrument

    # -- pickling ------------------------------------------------------------
    # Worker-side registries travel back over the process-pool pipe;
    # locks do not pickle, so drop the lock and rebuild it on load.

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_create_lock", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._create_lock = threading.Lock()

    # -- queries ------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> int:
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0

    def counter_family(self, name: str) -> dict[str, int]:
        """All series of one counter family, by rendered series name.

        Sorted by series name, so dumps of the family (``--stats``,
        profile artifacts, test fixtures) are byte-stable regardless of
        the order in which label combinations first appeared.
        """
        return {
            _series_name(n, key): c.value
            for (n, key), c in sorted(self._counters.items())
            if n == name
        }

    # Snapshot iteration for exporters (the Prometheus renderer and the
    # tests): yields (family name, label pairs, instrument) triples.

    def iter_counters(self) -> Iterable[tuple[str, _LabelKey, Counter]]:
        for (name, key), counter in self._counters.items():
            yield name, key, counter

    def iter_gauges(self) -> Iterable[tuple[str, _LabelKey, Gauge]]:
        for (name, key), gauge in self._gauges.items():
            yield name, key, gauge

    def iter_histograms(self) -> Iterable[tuple[str, _LabelKey, Histogram]]:
        for (name, key), histogram in self._histograms.items():
            yield name, key, histogram

    # -- merge / export -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (sums counters, keeps the
        other's gauges, merges histogram buckets)."""
        for (name, key), counter in other._counters.items():
            self._counters.setdefault((name, key), Counter()).value += \
                counter.value
        for (name, key), gauge in other._gauges.items():
            self._gauges.setdefault((name, key), Gauge()).value = gauge.value
        for (name, key), histogram in other._histograms.items():
            self._histograms.setdefault((name, key), Histogram()).merge(
                histogram
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "counters": {
                _series_name(name, key): counter.value
                for (name, key), counter in sorted(self._counters.items())
            },
            "gauges": {
                _series_name(name, key): gauge.value
                for (name, key), gauge in sorted(self._gauges.items())
            },
            "histograms": {
                _series_name(name, key): histogram.as_dict()
                for (name, key), histogram in sorted(self._histograms.items())
            },
        }
