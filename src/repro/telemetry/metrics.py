"""Counters, gauges and exponential-bucket histograms.

The metric model is deliberately small — three instrument kinds, each a
plain Python object with one hot method — because instrumentation sits
inside simulation inner loops and must cost nanoseconds, not
microseconds:

* :class:`Counter` — a monotone float total (``mac.frames_delivered``);
* :class:`Gauge` — a last-value sample (``admission.occupancy``);
* :class:`Histogram` — an exponential-bucket distribution
  (``mac.latency_s``) whose bucket edges are ``least * growth**i``, the
  classic HdrHistogram/Prometheus-native layout that covers microseconds
  to minutes in a few dozen sparse buckets.

Names follow a ``subsystem.metric`` convention (validated on creation):
the segment before the first dot is the subsystem the summarizer groups
tables by.  See ``docs/observability.md`` for the full catalogue.
"""

from __future__ import annotations

import math
import re

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_-]+)+$")


def _validate_name(name: str) -> str:
    """Enforce the ``subsystem.metric`` naming convention."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be lowercase dotted "
            "'subsystem.metric' (segments of [a-z0-9_-])")
    return name


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = _validate_name(name)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0.0:
            raise ValueError("counters only go up")
        self.value += float(amount)


class Gauge:
    """A last-value sample; ``None`` until first set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = _validate_name(name)
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current reading (non-finite values are kept as-is
        in memory but exported as ``null``)."""
        self.value = float(value)


class Histogram:
    """Sparse exponential-bucket histogram.

    Bucket ``i`` holds observations in ``(least * growth**(i-1),
    least * growth**i]``; bucket 0 holds everything at or below
    ``least``.  Only touched buckets are stored, so a latency histogram
    spanning six decades costs a handful of dict entries.
    """

    __slots__ = ("name", "least", "growth", "count", "total",
                 "min", "max", "_buckets")

    def __init__(self, name: str, least: float = 1e-6,
                 growth: float = 2.0) -> None:
        if least <= 0.0:
            raise ValueError("least bucket bound must be positive")
        if growth <= 1.0:
            raise ValueError("bucket growth factor must exceed 1")
        self.name = _validate_name(name)
        self.least = float(least)
        self.growth = float(growth)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}

    def bucket_index(self, value: float) -> int:
        """The bucket an observation lands in (0 for ``value <= least``)."""
        if value <= self.least:
            return 0
        index = math.ceil(math.log(value / self.least)
                          / math.log(self.growth))
        # Guard the edge where float log puts an exact bound one short.
        if self.least * self.growth ** index < value:
            index += 1
        return max(index, 0)

    def upper_bound(self, index: int) -> float:
        """Inclusive upper edge of bucket ``index``."""
        if index < 0:
            raise ValueError("bucket index cannot be negative")
        return self.least * self.growth ** index

    def observe(self, value: float) -> None:
        """Record one (finite, non-negative) observation."""
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError("histograms record finite non-negative values")
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        index = self.bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of everything observed (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` per touched bucket, ascending."""
        return [(self.upper_bound(i), self._buckets[i])
                for i in sorted(self._buckets)]

    @classmethod
    def from_state(cls, name: str, least: float, growth: float,
                   count: int, total: float, min_value: float | None,
                   max_value: float | None,
                   bucket_counts: dict[int, int]) -> Histogram:
        """Rebuild a histogram from captured state (the snapshot path).

        ``min_value``/``max_value`` may be ``None`` for an empty
        histogram (the JSON-safe encoding of the untouched ±inf
        sentinels).
        """
        histogram = cls(name, least=least, growth=growth)
        if count < 0 or total < 0.0:
            raise ValueError("histogram state cannot be negative")
        histogram.count = int(count)
        histogram.total = float(total)
        histogram.min = math.inf if min_value is None else float(min_value)
        histogram.max = -math.inf if max_value is None else float(max_value)
        for index, bucket_count in bucket_counts.items():
            if index < 0 or bucket_count < 0:
                raise ValueError("histogram buckets cannot be negative")
            histogram._buckets[int(index)] = int(bucket_count)
        return histogram

    def bucket_counts(self) -> dict[int, int]:
        """A copy of the sparse ``{bucket_index: count}`` map.

        The raw indices (not the float upper bounds) are what a
        cross-process merge needs: two histograms with the same
        ``least``/``growth`` layout can be combined exactly by adding
        counts index-by-index.
        """
        return dict(self._buckets)

    def absorb(self, other: Histogram) -> None:
        """Merge another histogram's distribution into this one.

        Both histograms must share a bucket layout (``least`` and
        ``growth``), which holds whenever the same instrument name was
        observed on both sides — the cross-process telemetry merge case
        (:meth:`repro.telemetry.Recorder.absorb`).
        """
        if (other.least, other.growth) != (self.least, self.growth):
            raise ValueError(
                f"histogram {self.name!r}: cannot absorb a different "
                f"bucket layout (least={other.least}, "
                f"growth={other.growth})")
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, bucket_count in other.bucket_counts().items():
            self._buckets[index] = self._buckets.get(index, 0) \
                + bucket_count

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds (0.0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for upper, bucket_count in self.buckets():
            seen += bucket_count
            if seen >= target:
                return min(upper, self.max)
        return self.max


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name.

    Lookup is a single dict hit so repeated calls from hot loops are
    cheap; iteration is always name-sorted so exports are byte-stable.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, least: float = 1e-6,
                  growth: float = 2.0) -> Histogram:
        """The histogram under ``name`` (bucket layout fixed on creation)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, least=least, growth=growth)
        return histogram

    def counters(self) -> list[Counter]:
        """Every counter, name-sorted."""
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        """Every gauge, name-sorted."""
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> list[Histogram]:
        """Every histogram, name-sorted."""
        return [self._histograms[k] for k in sorted(self._histograms)]
