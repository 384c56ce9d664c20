"""``repro.telemetry`` — sim-time observability for the whole stack.

The repo's simulations used to report only end-of-run aggregates; this
package adds an instrumentation layer for the chaos, resilience and
cluster runs: per-event counters, last-value gauges, point events, and
spans measured in **simulated seconds** — never wall time, so every
export regenerates byte-identically from a seed.  Every export is
recorded in one process by one :class:`Recorder`; nothing merges
recorders across processes.

Pieces
------
``clock``     :class:`SimClock` — the simulated-time source of truth
``tracer``    :class:`Tracer` — scoped and cross-step spans
``recorder``  the facade: :class:`Recorder` keeps the counter and
              gauge dicts, the tracer and the event log;
              :class:`NullRecorder` (the default everywhere) costs ~0
``export``    deterministic JSONL / flamegraph exporters
``summary``   per-subsystem tables for ``repro telemetry summarize``

Usage
-----
>>> from repro.telemetry import Recorder, to_jsonl_lines
>>> from repro.resilience import ChaosSimulation  # doctest: +SKIP
>>> rec = Recorder()                              # doctest: +SKIP
>>> ChaosSimulation(link, telemetry=rec).run(injector, 30)  # doctest: +SKIP
>>> for line in to_jsonl_lines(rec):              # doctest: +SKIP
...     print(line)
"""

from .clock import SimClock
from .export import collapsed_stacks, to_jsonl_lines
from .recorder import EventRecord, NullRecorder, Recorder, TelemetryRecorder
from .summary import (
    SpanStats,
    SubsystemSummary,
    TelemetrySummary,
    load_jsonl,
    load_path,
    render,
    spans_to_collapsed,
    summarize,
)
from .tracer import ActiveSpan, SpanRecord, Tracer

__all__ = [
    "ActiveSpan",
    "EventRecord",
    "NullRecorder",
    "Recorder",
    "SimClock",
    "SpanRecord",
    "SpanStats",
    "SubsystemSummary",
    "TelemetryRecorder",
    "TelemetrySummary",
    "Tracer",
    "collapsed_stacks",
    "load_jsonl",
    "load_path",
    "render",
    "spans_to_collapsed",
    "summarize",
    "to_jsonl_lines",
]
