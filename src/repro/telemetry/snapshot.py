"""Picklable telemetry snapshots for cross-process merging.

A :class:`Recorder` lives in one process; a parallel chaos sweep
(:func:`repro.experiments.chaos.run_all` with an executor) runs its
scenarios in *worker* processes, each with its own recorder.
:class:`TelemetrySnapshot` is the bridge: it captures everything a
worker recorded as plain primitives, travels back over the pickle
boundary, and is absorbed into the sweep's recorder with
:meth:`Recorder.absorb`.

The merge discipline is what keeps exports matching a serial run.
Snapshots are absorbed in scenario order, and:

* spans are renumbered onto the target tracer's id sequence in *begin*
  order, then appended in *completion* order — exactly the ids and
  ordering one shared tracer would have assigned;
* events are appended in recorded order with their recorded sim-time
  stamps;
* counters add, gauges last-write-wins in absorb order;
* the target clock advances to the latest instant the snapshot saw
  (:meth:`~repro.telemetry.clock.SimClock.advance_to` keeps it
  monotone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .recorder import EventRecord, Recorder
from .tracer import Primitive, SpanRecord

__all__ = ["TelemetrySnapshot"]


def _primitive(value: Any) -> Primitive:
    """Validate that a snapshot field is a JSON-safe scalar."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"snapshot fields must be JSON scalars, got "
                    f"{type(value).__name__}")


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One recorder's complete contents as plain primitives.

    Everything is a tuple/dict of JSON scalars, so a snapshot pickles
    across process boundaries without loss.
    """

    clock_s: float = 0.0
    counters: tuple[tuple[str, float], ...] = ()
    """Name-sorted ``(name, value)`` pairs."""

    gauges: tuple[tuple[str, float | None], ...] = ()
    """Name-sorted ``(name, last_value)`` pairs."""

    spans: tuple[dict[str, Any], ...] = field(default_factory=tuple)
    """Finished spans in completion order, with the source tracer's
    local ids (renumbered on absorb)."""

    events: tuple[dict[str, Any], ...] = field(default_factory=tuple)
    """Point events in emission order."""

    # --- capture ----------------------------------------------------------

    @classmethod
    def capture(cls, recorder: Recorder) -> TelemetrySnapshot:
        """Snapshot a live :class:`Recorder` (metrics, spans, events)."""
        counters = tuple((c.name, c.value)
                         for c in recorder.metrics.counters())
        gauges = tuple((g.name, g.value)
                       for g in recorder.metrics.gauges())
        spans = tuple(
            {"id": s.span_id, "name": s.name, "start_s": s.start_s,
             "end_s": s.end_s, "parent": s.parent_id,
             "attrs": {k: _primitive(v) for k, v in s.attrs.items()}}
            for s in recorder.tracer.finished)
        events = tuple(
            {"time_s": e.time_s, "name": e.name,
             "fields": {k: _primitive(v) for k, v in e.fields.items()}}
            for e in recorder.events)
        return cls(clock_s=recorder.clock.now_s, counters=counters,
                   gauges=gauges, spans=spans, events=events)

    # --- merge ------------------------------------------------------------

    def shifted(self, offset_s: float) -> TelemetrySnapshot:
        """A copy with every timestamp moved ``offset_s`` later.

        Workers record on private clocks that start at zero; a sweep
        that wants worker timelines to *stack* (the way serial drivers
        sharing one recorder accumulate a cumulative axis) shifts each
        snapshot to the merge clock's current instant before absorbing
        it.  Metric values are untouched — only span edges, event
        stamps and the final clock reading move.
        """
        if offset_s < 0.0:
            raise ValueError("snapshots cannot shift backwards in time")
        if offset_s == 0.0:
            return self
        spans = tuple(dict(s, start_s=float(s["start_s"]) + offset_s,
                           end_s=float(s["end_s"]) + offset_s)
                      for s in self.spans)
        events = tuple(dict(e, time_s=float(e["time_s"]) + offset_s)
                       for e in self.events)
        return TelemetrySnapshot(
            clock_s=self.clock_s + offset_s, counters=self.counters,
            gauges=self.gauges, spans=spans, events=events)

    def span_records(self) -> list[SpanRecord]:
        """The snapshot's spans as :class:`SpanRecord` objects.

        Ids are still the *source* tracer's local ids; feed them to
        :meth:`~repro.telemetry.tracer.Tracer.absorb` (or
        :meth:`Recorder.absorb`) to renumber onto a target timeline.
        """
        return [SpanRecord(span_id=int(s["id"]), name=str(s["name"]),
                           start_s=float(s["start_s"]),
                           end_s=float(s["end_s"]),
                           parent_id=(None if s["parent"] is None
                                      else int(s["parent"])),
                           attrs=dict(s["attrs"]))
                for s in self.spans]

    def event_records(self) -> list[EventRecord]:
        """The snapshot's events as :class:`EventRecord` objects."""
        return [EventRecord(time_s=float(e["time_s"]),
                            name=str(e["name"]),
                            fields=dict(e["fields"]))
                for e in self.events]
