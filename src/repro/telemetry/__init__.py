"""``repro.telemetry`` — sim-time observability for the whole stack.

The repo's simulations used to report only end-of-run aggregates; this
package adds an instrumentation layer for the chaos, resilience and
cluster runs: per-event counters, last-value gauges, point events, and
spans measured in **simulated seconds** — never wall time, so every
export regenerates byte-identically from a seed.

Pieces
------
``clock``     :class:`SimClock` — the simulated-time source of truth
``metrics``   :class:`Counter` / :class:`Gauge` behind a
              :class:`MetricsRegistry`
``tracer``    :class:`Tracer` — scoped and cross-step spans
``recorder``  the facade: :class:`Recorder` records,
              :class:`NullRecorder` (the default everywhere) costs ~0
``snapshot``  :class:`TelemetrySnapshot` — picklable capture of one
              recorder, merged across processes via ``Recorder.absorb``
``export``    deterministic JSONL / flamegraph exporters
``summary``   per-subsystem tables for ``repro telemetry summarize``

Usage
-----
>>> from repro.telemetry import Recorder, to_jsonl_lines
>>> from repro.resilience import ChaosSimulation  # doctest: +SKIP
>>> rec = Recorder()                              # doctest: +SKIP
>>> ChaosSimulation(link, injector, telemetry=rec).run(30)  # doctest: +SKIP
>>> for line in to_jsonl_lines(rec):              # doctest: +SKIP
...     print(line)
"""

from .clock import SimClock
from .export import collapsed_stacks, to_jsonl_lines
from .metrics import Counter, Gauge, MetricsRegistry
from .recorder import EventRecord, NullRecorder, Recorder, TelemetryRecorder
from .snapshot import TelemetrySnapshot
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
    "Counter",
    "EventRecord",
    "Gauge",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "SimClock",
    "SpanRecord",
    "SpanStats",
    "SubsystemSummary",
    "TelemetryRecorder",
    "TelemetrySnapshot",
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
