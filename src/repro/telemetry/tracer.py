"""Sim-time spans: how long (in simulated seconds) work actually took.

A span is an interval on the :class:`~repro.telemetry.clock.SimClock`
timeline with a name, optional attributes and a parent.  Two usage
shapes cover everything the stack needs:

* scoped — ``with tracer.span("chaos.scenario", seed=3): ...`` for
  work that nests cleanly (one chaos scenario, one failover run);
* manual — ``handle = tracer.begin("cluster.ap_outage"); ...;
  tracer.end(handle)`` for intervals that open and close on different
  simulation steps (an AP's crash-to-recovery window, a link's
  outage-to-healthy recovery), which may overlap arbitrarily.

Parentage is the innermost span open at ``begin`` time, so nested work
rolls up into flamegraph stacks
(:func:`repro.telemetry.export.collapsed_stacks`).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from .clock import SimClock

__all__ = ["ActiveSpan", "SpanRecord", "Tracer"]

Primitive = float | int | str | bool | None
"""Attribute/field values must stay JSON-scalar so exports are stable."""


@dataclass(frozen=True)
class SpanRecord:
    """One finished span on the simulated timeline."""

    span_id: int
    name: str
    start_s: float
    end_s: float
    parent_id: int | None
    attrs: dict[str, Primitive] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Simulated seconds between begin and end."""
        return self.end_s - self.start_s


class ActiveSpan:
    """Handle for a span that has begun but not yet ended."""

    __slots__ = ("span_id", "name", "start_s", "parent_id", "attrs")

    def __init__(self, span_id: int, name: str, start_s: float,
                 parent_id: int | None,
                 attrs: dict[str, Primitive]) -> None:
        self.span_id = span_id
        self.name = name
        self.start_s = start_s
        self.parent_id = parent_id
        self.attrs = attrs


class Tracer:
    """Opens and closes spans against one simulation clock."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.finished: list[SpanRecord] = []
        self._open: dict[int, ActiveSpan] = {}
        self._stack: list[int] = []
        self._next_id = 1

    def begin(self, name: str, **attrs: Primitive) -> ActiveSpan:
        """Open a span now; its parent is the innermost open span."""
        span = ActiveSpan(
            span_id=self._next_id, name=name, start_s=self.clock.now_s,
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs))
        self._next_id += 1
        self._open[span.span_id] = span
        self._stack.append(span.span_id)
        return span

    def end(self, span: ActiveSpan) -> SpanRecord:
        """Close a span now (out-of-order ends are fine)."""
        if self._open.pop(span.span_id, None) is None:
            raise ValueError(f"span {span.span_id} is not open")
        self._stack.remove(span.span_id)
        record = SpanRecord(
            span_id=span.span_id, name=span.name, start_s=span.start_s,
            end_s=self.clock.now_s, parent_id=span.parent_id,
            attrs=span.attrs)
        self.finished.append(record)
        return record

    @contextmanager
    def span(self, name: str, **attrs: Primitive) -> Iterator[ActiveSpan]:
        """Scoped span: closed when the ``with`` block exits."""
        handle = self.begin(name, **attrs)
        try:
            yield handle
        finally:
            self.end(handle)
