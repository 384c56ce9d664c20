"""The recorder facade every instrumented layer talks to.

Components never import the tracer directly; they take an
optional ``telemetry`` argument typed as :class:`TelemetryRecorder` and
call four verbs — :meth:`~TelemetryRecorder.count`,
:meth:`~TelemetryRecorder.gauge`, :meth:`~TelemetryRecorder.event` and
:meth:`~TelemetryRecorder.span`/:meth:`~TelemetryRecorder.begin`/
:meth:`~TelemetryRecorder.end`.  Two implementations exist:

* :class:`NullRecorder` — the default.  Every verb is an empty method
  and ``enabled`` is False, so an uninstrumented run pays one attribute
  check (or one no-op call) per site and allocates nothing.  Hot loops
  batch their instrumentation behind ``if telemetry.enabled:`` to make
  the disabled cost indistinguishable from the seed code — the
  ``benchmarks/test_telemetry_overhead.py`` gate pins this.
* :class:`Recorder` — the real thing: a counter dict, a gauge dict, a
  :class:`~repro.telemetry.tracer.Tracer` and an ordered event log, all
  stamped from one :class:`~repro.telemetry.clock.SimClock`.

The metric model is two kinds, each a name-to-float dict entry: a
counter is a monotone total (``chaos.steps``), a gauge a last-value
sample (``cluster.alive_aps``).  Names follow a ``subsystem.metric``
convention, checked on first use: the segment before the first dot is
the subsystem the summarizer groups tables by.  See
``docs/observability.md`` for the full catalogue.
"""

from __future__ import annotations

import re
from contextlib import AbstractContextManager
from dataclasses import dataclass, field

from .clock import SimClock
from .tracer import ActiveSpan, Primitive, Tracer

__all__ = ["EventRecord", "NullRecorder", "Recorder", "TelemetryRecorder"]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_-]+)+$")


def _check_name(name: str) -> None:
    """Enforce the ``subsystem.metric`` naming convention."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be lowercase dotted "
            "'subsystem.metric' (segments of [a-z0-9_-])")


@dataclass(frozen=True)
class EventRecord:
    """One point event on the simulated timeline."""

    time_s: float
    name: str
    fields: dict[str, Primitive] = field(default_factory=dict)


class _NullSpan:
    """Shared do-nothing span handle / context manager."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        """No-op."""
        return self

    def __exit__(self, *exc: object) -> None:
        """No-op."""
        return None


_NULL_SPAN = _NullSpan()


class TelemetryRecorder:
    """Interface (and null implementation) of the telemetry verbs.

    The base class *is* the null behaviour: subclass and override to
    actually record.  ``enabled`` lets hot loops skip whole
    instrumentation blocks in one boolean check.
    """

    enabled: bool = False
    __slots__ = ("clock",)

    def __init__(self) -> None:
        self.clock = SimClock()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` (no-op here)."""
        return None

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (no-op here)."""
        return None

    def event(self, name: str, **fields: Primitive) -> None:
        """Log a point event at the clock's current instant (no-op here)."""
        return None

    def begin(self, name: str, **attrs: Primitive) -> ActiveSpan | _NullSpan:
        """Open a span that a later :meth:`end` closes (no-op here)."""
        return _NULL_SPAN

    def end(self, span: ActiveSpan | _NullSpan) -> None:
        """Close a span opened with :meth:`begin` (no-op here)."""
        return None

    def span(self, name: str, **attrs: Primitive
             ) -> AbstractContextManager[ActiveSpan | _NullSpan]:
        """Context manager tracing one scoped block (no-op here)."""
        return _NULL_SPAN


class NullRecorder(TelemetryRecorder):
    """The explicit zero-overhead recorder — the default everywhere.

    Exists as a distinct class (rather than using the base directly) so
    call sites read ``telemetry or NullRecorder()`` and type checks can
    distinguish "default null" from "custom subclass".
    """

    __slots__ = ()


class Recorder(TelemetryRecorder):
    """A live recorder: counters, gauges, spans and events on one sim
    clock."""

    enabled = True
    __slots__ = ("counters", "gauges", "tracer", "events")

    def __init__(self) -> None:
        super().__init__()
        self.counters: dict[str, float] = {}
        """Counter totals by name; the export lists them name-sorted."""
        self.gauges: dict[str, float] = {}
        """Last gauge readings by name (non-finite values are kept
        as-is here and exported as ``null``)."""
        self.tracer = Tracer(self.clock)
        self.events: list[EventRecord] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (never negative) to the counter ``name``."""
        if amount < 0.0:
            raise ValueError("counters only go up")
        if name not in self.counters:
            _check_name(name)
            self.counters[name] = 0.0
        self.counters[name] += float(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        if name not in self.gauges:
            _check_name(name)
        self.gauges[name] = float(value)

    def event(self, name: str, **fields: Primitive) -> None:
        """Append a point event stamped with the current sim time."""
        self.events.append(EventRecord(
            time_s=self.clock.now_s, name=name, fields=dict(fields)))

    def begin(self, name: str, **attrs: Primitive) -> ActiveSpan:
        """Open a (possibly cross-step) span at the current sim time."""
        return self.tracer.begin(name, **attrs)

    def end(self, span: ActiveSpan | _NullSpan) -> None:
        """Close a span opened with :meth:`begin`."""
        if isinstance(span, ActiveSpan):
            self.tracer.end(span)

    def span(self, name: str, **attrs: Primitive
             ) -> AbstractContextManager[ActiveSpan | _NullSpan]:
        """Context manager tracing one scoped block in sim time."""
        return self.tracer.span(name, **attrs)
