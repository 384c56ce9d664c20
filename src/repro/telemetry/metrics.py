"""Counters and gauges.

The metric model is deliberately small — two instrument kinds, each a
plain Python object with one hot method — because instrumentation sits
inside simulation inner loops and must cost nanoseconds, not
microseconds:

* :class:`Counter` — a monotone float total (``chaos.steps``);
* :class:`Gauge` — a last-value sample (``cluster.alive_aps``).

Names follow a ``subsystem.metric`` convention (validated on creation):
the segment before the first dot is the subsystem the summarizer groups
tables by.  See ``docs/observability.md`` for the full catalogue.
"""

from __future__ import annotations

import re

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

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


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name.

    Lookup is a single dict hit so repeated calls from hot loops are
    cheap; iteration is always name-sorted so exports are byte-stable.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

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

    def counters(self) -> list[Counter]:
        """Every counter, name-sorted."""
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        """Every gauge, name-sorted."""
        return [self._gauges[k] for k in sorted(self._gauges)]
