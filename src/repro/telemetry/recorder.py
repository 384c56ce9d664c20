"""The recorder facade every instrumented layer talks to.

Components never import the registry or tracer directly; they take an
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
* :class:`Recorder` — the real thing: a
  :class:`~repro.telemetry.metrics.MetricsRegistry`, a
  :class:`~repro.telemetry.tracer.Tracer` and an ordered event log, all
  stamped from one :class:`~repro.telemetry.clock.SimClock`.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .clock import SimClock
from .metrics import MetricsRegistry
from .tracer import ActiveSpan, Primitive, Tracer

if TYPE_CHECKING:  # imported lazily to avoid a snapshot<->recorder cycle
    from .snapshot import TelemetrySnapshot

__all__ = ["EventRecord", "NullRecorder", "Recorder", "TelemetryRecorder"]


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

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        """Merge a cross-process telemetry snapshot (no-op here)."""
        return None


class NullRecorder(TelemetryRecorder):
    """The explicit zero-overhead recorder — the default everywhere.

    Exists as a distinct class (rather than using the base directly) so
    call sites read ``telemetry or NullRecorder()`` and type checks can
    distinguish "default null" from "custom subclass".
    """

    __slots__ = ()


class Recorder(TelemetryRecorder):
    """A live recorder: metrics + spans + events on one sim clock."""

    enabled = True
    __slots__ = ("metrics", "tracer", "events")

    def __init__(self) -> None:
        super().__init__()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock)
        self.events: list[EventRecord] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        self.metrics.gauge(name).set(value)

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

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        """Merge a :class:`~repro.telemetry.snapshot.TelemetrySnapshot`
        captured from another recorder (typically in a worker process).

        Counters add, gauges take the snapshot's last value, spans are
        renumbered onto this tracer's id sequence
        (:meth:`~repro.telemetry.tracer.Tracer.absorb`), events append
        in recorded order, and the clock advances to the snapshot's
        final instant.  Absorbing scenario snapshots in scenario order
        therefore reproduces the state one shared recorder would have
        reached serially.
        """
        for name, value in snapshot.counters:
            self.metrics.counter(name).inc(value)
        for name, gauge_value in snapshot.gauges:
            if gauge_value is not None:
                self.metrics.gauge(name).set(gauge_value)
        self.tracer.absorb(snapshot.span_records())
        self.events.extend(snapshot.event_records())
        self.clock.advance_to(snapshot.clock_s)
