"""Deterministic JSONL and collapsed-stack exporters.

Exports are a *replayable artifact*: two runs of the same code with the
same seed must produce byte-identical files (the hypothesis test in
``tests/test_telemetry_determinism.py`` pins this).  Everything that
could wobble is nailed down:

* no wall-clock stamps anywhere — timestamps are simulated seconds;
* JSON with sorted keys and fixed separators;
* metrics emitted in name order, spans in completion order, events in
  emission order (both deterministic given a seeded simulation);
* non-finite floats (an ``-inf`` SNR gauge) serialised as ``null`` so
  every line is strict JSON.

The JSONL layout is one self-describing object per line with a
``record`` discriminator: ``meta``, ``counter``, ``gauge``, ``span``,
``event``.  ``collapsed_stacks`` renders
finished spans in the Brendan-Gregg collapsed format
(``root;child value``) that flamegraph tooling consumes, with values in
simulated microseconds.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .recorder import Recorder
from .tracer import SpanRecord

__all__ = ["EXPORT_FORMAT_VERSION", "collapsed_stacks", "to_jsonl_lines"]

EXPORT_FORMAT_VERSION = 1
"""Bump on any change to the JSONL line layout."""


def _json_safe(value: Any) -> Any:
    """Map non-finite floats to ``None`` so every line is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _dumps(obj: dict[str, Any]) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return json.dumps(_json_safe(obj), sort_keys=True,
                      separators=(",", ":"))


def to_jsonl_lines(recorder: Recorder) -> list[str]:
    """Serialise one recorder into JSONL lines (no trailing newline)."""
    lines = [_dumps({"record": "meta", "format": "repro-telemetry",
                     "version": EXPORT_FORMAT_VERSION,
                     "clock_s": recorder.clock.now_s})]
    for name in sorted(recorder.counters):
        lines.append(_dumps({"record": "counter", "name": name,
                             "value": recorder.counters[name]}))
    for name in sorted(recorder.gauges):
        lines.append(_dumps({"record": "gauge", "name": name,
                             "value": recorder.gauges[name]}))
    for span in recorder.tracer.finished:
        lines.append(_dumps({
            "record": "span", "id": span.span_id, "name": span.name,
            "start_s": span.start_s, "end_s": span.end_s,
            "parent": span.parent_id, "attrs": span.attrs}))
    for event in recorder.events:
        lines.append(_dumps({"record": "event", "name": event.name,
                             "time_s": event.time_s,
                             "fields": event.fields}))
    return lines


def collapsed_stacks(spans: list[SpanRecord]) -> list[str]:
    """Finished spans folded into flamegraph collapsed-stack lines.

    Each line is ``parent;child count`` where the count is the span's
    *self* time (duration minus finished children) in whole simulated
    microseconds — the units flamegraph renderers treat as sample
    counts.  Lines come out sorted, so the export is deterministic.
    """
    names = {span.span_id: span.name for span in spans}
    parents = {span.span_id: span.parent_id for span in spans}
    child_time: dict[int | None, float] = {}
    for span in spans:
        parent = span.parent_id
        child_time[parent] = child_time.get(parent, 0.0) + span.duration_s

    def stack(span: SpanRecord) -> str:
        chain = [span.name]
        parent = span.parent_id
        while parent is not None and parent in names:
            chain.append(names[parent])
            parent = parents[parent]
        return ";".join(reversed(chain))

    totals: dict[str, int] = {}
    for span in spans:
        self_s = span.duration_s - child_time.get(span.span_id, 0.0)
        micros = int(round(max(self_s, 0.0) * 1e6))
        key = stack(span)
        totals[key] = totals.get(key, 0) + micros
    return [f"{key} {value}" for key, value in sorted(totals.items())]
