"""Summarise a telemetry export into per-subsystem tables.

The ``python -m repro telemetry summarize`` CLI is a thin wrapper over
this module: :func:`load_jsonl` parses an export produced by
:mod:`repro.telemetry.export`, :func:`summarize` groups every record by
its subsystem (the segment before the first dot of the metric/span
name) and :func:`render` prints fixed-width tables — the "where did the
time and the failures go" view the chaos and failover experiments were
missing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["SpanStats", "SubsystemSummary", "TelemetrySummary",
           "load_jsonl", "load_path", "render", "spans_to_collapsed",
           "subsystem_of", "summarize"]


def load_jsonl(text: str) -> list[dict[str, Any]]:
    """Parse a JSONL export back into a list of record dicts.

    Raises ``ValueError`` on malformed lines or a missing ``record``
    discriminator — a truncated artifact should fail loudly, not
    summarise quietly wrong.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON") from exc
        if not isinstance(record, dict) or "record" not in record:
            raise ValueError(f"line {lineno}: missing 'record' field")
        records.append(record)
    return records


def subsystem_of(name: str) -> str:
    """The grouping key: everything before the first dot."""
    return name.split(".", 1)[0]


@dataclass
class SpanStats:
    """Aggregate over every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Average span duration (0.0 when no spans were recorded)."""
        return self.total_s / self.count if self.count else 0.0

    def add(self, duration_s: float) -> None:
        """Fold one span's duration into the aggregate."""
        self.count += 1
        self.total_s += duration_s
        self.max_s = max(self.max_s, duration_s)


@dataclass
class SubsystemSummary:
    """Everything one subsystem reported."""

    name: str
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float | None] = field(default_factory=dict)
    spans: dict[str, SpanStats] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)


@dataclass
class TelemetrySummary:
    """The whole export, grouped by subsystem."""

    clock_s: float = 0.0
    subsystems: dict[str, SubsystemSummary] = field(default_factory=dict)

    def subsystem(self, name: str) -> SubsystemSummary:
        """Get-or-create one subsystem's bucket."""
        bucket = self.subsystems.get(name)
        if bucket is None:
            bucket = self.subsystems[name] = SubsystemSummary(name=name)
        return bucket


def summarize(records: list[dict[str, Any]]) -> TelemetrySummary:
    """Fold parsed JSONL records into a :class:`TelemetrySummary`.

    A record of any other kind (say, the ``histogram`` lines older
    exports carry) is skipped.
    """
    summary = TelemetrySummary()
    for record in records:
        kind = record["record"]
        if kind == "meta":
            summary.clock_s = float(record.get("clock_s") or 0.0)
            continue
        name = str(record.get("name", ""))
        if not name or kind not in ("counter", "gauge", "span", "event"):
            continue
        bucket = summary.subsystem(subsystem_of(name))
        if kind == "counter":
            bucket.counters[name] = float(record["value"])
        elif kind == "gauge":
            value = record["value"]
            bucket.gauges[name] = None if value is None else float(value)
        elif kind == "span":
            stats = bucket.spans.get(name)
            if stats is None:
                stats = bucket.spans[name] = SpanStats(name=name)
            stats.add(float(record["end_s"]) - float(record["start_s"]))
        elif kind == "event":
            bucket.events[name] = bucket.events.get(name, 0) + 1
    return summary


def _fmt(value: float | None) -> str:
    """Compact numeric cell: ints stay ints, floats get 6 sig figs."""
    if value is None:
        return "-"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render(summary: TelemetrySummary) -> str:
    """Fixed-width per-subsystem tables for the terminal."""
    lines = [f"telemetry summary ({summary.clock_s:.6g} simulated s, "
             f"{len(summary.subsystems)} subsystem(s))"]
    for name in sorted(summary.subsystems):
        bucket = summary.subsystems[name]
        lines.append("")
        lines.append(f"== {name} " + "=" * max(1, 58 - len(name)))
        if bucket.counters:
            lines.append("  counters")
            for metric in sorted(bucket.counters):
                lines.append(f"    {metric:<42} "
                             f"{_fmt(bucket.counters[metric]):>12}")
        if bucket.gauges:
            lines.append("  gauges")
            for metric in sorted(bucket.gauges):
                lines.append(f"    {metric:<42} "
                             f"{_fmt(bucket.gauges[metric]):>12}")
        if bucket.spans:
            lines.append("  spans" + " " * 27
                         + f"{'count':>8} {'total_s':>10} "
                         f"{'mean_s':>10} {'max_s':>10}")
            for metric in sorted(bucket.spans):
                s = bucket.spans[metric]
                lines.append(
                    f"    {metric:<28} {s.count:>8} "
                    f"{_fmt(s.total_s):>10} {_fmt(s.mean_s):>10} "
                    f"{_fmt(s.max_s):>10}")
        if bucket.events:
            lines.append("  events")
            for metric in sorted(bucket.events):
                lines.append(f"    {metric:<42} "
                             f"{bucket.events[metric]:>12}")
    return "\n".join(lines)


def spans_to_collapsed(records: list[dict[str, Any]]) -> list[str]:
    """Collapsed flamegraph stacks straight from parsed JSONL records.

    The file-based twin of
    :func:`repro.telemetry.export.collapsed_stacks`, for the
    ``telemetry flame`` CLI which only has the export to work from.
    """
    from .tracer import SpanRecord

    spans = [SpanRecord(span_id=int(r["id"]), name=str(r["name"]),
                        start_s=float(r["start_s"]),
                        end_s=float(r["end_s"]),
                        parent_id=(None if r.get("parent") is None
                                   else int(r["parent"])),
                        attrs=dict(r.get("attrs") or {}))
             for r in records if r["record"] == "span"]
    from .export import collapsed_stacks

    return collapsed_stacks(spans)


def load_path(path: str | Path) -> list[dict[str, Any]]:
    """Read and parse one JSONL export file."""
    return load_jsonl(Path(path).read_text(encoding="utf-8"))
