"""``repro.telemetry`` — sim-time observability for the whole stack.

The repo's simulations used to report only end-of-run aggregates; this
package adds the instrumentation layer mmX's own evaluation (§9) is
built on: per-event counters, last-value gauges, exponential-bucket
latency histograms, and spans measured in **simulated seconds** — never
wall time, so every export regenerates byte-identically from a seed.

Pieces
------
``clock``     :class:`SimClock` — the simulated-time source of truth
``metrics``   :class:`Counter` / :class:`Gauge` / :class:`Histogram`
              behind a :class:`MetricsRegistry`
``tracer``    :class:`Tracer` — scoped and cross-step spans
``recorder``  the facade: :class:`Recorder` records,
              :class:`NullRecorder` (the default everywhere) costs ~0
``snapshot``  :class:`TelemetrySnapshot` — serializable capture of one
              recorder, merged across processes via ``Recorder.absorb``
``export``    deterministic JSONL / CSV / flamegraph exporters
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
from .export import (
    collapsed_stacks,
    to_csv,
    to_jsonl_lines,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import EventRecord, NullRecorder, Recorder, TelemetryRecorder
from .snapshot import SNAPSHOT_SCHEMA_VERSION, TelemetrySnapshot
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
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "SNAPSHOT_SCHEMA_VERSION",
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
    "to_csv",
    "to_jsonl_lines",
]
