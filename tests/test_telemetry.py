"""Tests for ``repro.telemetry``: the core primitives, the exporters,
and the instrumentation wired through the simulation stack."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    SimClock,
    TelemetryRecorder,
    Tracer,
    collapsed_stacks,
    load_jsonl,
    render,
    spans_to_collapsed,
    summarize,
    to_jsonl_lines,
)

from .engine_reference import serial_trials


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_s == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(0.5)
        clock.advance(0.25)
        assert clock.now_s == pytest.approx(0.75)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to_is_monotone(self):
        clock = SimClock()
        clock.advance_to(3.0)
        clock.advance_to(1.0)  # backwards is a clamped no-op
        assert clock.now_s == 3.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start_s=-1.0)


class TestMetrics:
    def test_counter_accumulates(self):
        counter = Counter("mac.frames")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("mac.frames").inc(-1.0)

    @pytest.mark.parametrize("bad", ["frames", "MAC.frames", "mac.",
                                     ".frames", "mac frames", ""])
    def test_name_convention_enforced(self, bad):
        with pytest.raises(ValueError):
            Counter(bad)

    def test_gauge_none_until_set(self):
        gauge = Gauge("transport.rto_s")
        assert gauge.value is None
        gauge.set(0.25)
        assert gauge.value == pytest.approx(0.25)

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        registry.gauge("a.g")
        assert [m.name for m in (*registry.counters(), *registry.gauges())] \
            == ["a.b", "a.g"]

    def test_registry_iteration_is_name_sorted(self):
        registry = MetricsRegistry()
        for name in ("z.last", "a.first", "m.mid"):
            registry.counter(name)
        assert [c.name for c in registry.counters()] == [
            "a.first", "m.mid", "z.last"]


class TestTracer:
    def test_scoped_span_parentage(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("sim.outer"):
            clock.advance(1.0)
            with tracer.span("sim.inner"):
                clock.advance(2.0)
        inner, outer = tracer.finished
        assert inner.name == "sim.inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration_s == pytest.approx(2.0)
        assert outer.duration_s == pytest.approx(3.0)

    def test_out_of_order_end(self):
        clock = SimClock()
        tracer = Tracer(clock)
        a = tracer.begin("resilience.outage")
        b = tracer.begin("cluster.ap_outage")
        clock.advance(5.0)
        tracer.end(a)  # closed before b — overlapping, not nested
        tracer.end(b)
        assert not tracer._open
        assert [s.name for s in tracer.finished] == [
            "resilience.outage", "cluster.ap_outage"]

    def test_double_end_raises(self):
        tracer = Tracer(SimClock())
        span = tracer.begin("sim.trial")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)


class TestRecorders:
    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        assert not null.enabled
        null.count("mac.frames")
        null.gauge("mac.depth", 1.0)
        null.event("mac.run", ok=True)
        handle = null.begin("sim.trial")
        null.end(handle)
        with null.span("sim.trial"):
            pass

    def test_base_class_is_null(self):
        assert not TelemetryRecorder.enabled
        assert isinstance(NullRecorder(), TelemetryRecorder)

    def test_recorder_records_all_verbs(self):
        rec = Recorder()
        rec.clock.advance(1.5)
        rec.count("mac.frames", 3)
        rec.gauge("transport.rto_s", 0.2)
        rec.event("mac.run", offered=5)
        assert rec.metrics.counter("mac.frames").value == 3.0
        assert rec.metrics.gauge("transport.rto_s").value == 0.2
        assert rec.events[0].time_s == pytest.approx(1.5)
        assert rec.events[0].fields == {"offered": 5}

    def test_recorder_end_tolerates_null_span(self):
        rec = Recorder()
        null_handle = NullRecorder().begin("sim.trial")
        rec.end(null_handle)  # no-op, not an error
        assert rec.tracer.finished == []


class TestExport:
    def _small_recorder(self) -> Recorder:
        rec = Recorder()
        rec.count("mac.frames", 2)
        rec.gauge("resilience.snr_db", float("-inf"))
        with rec.span("sim.trial", index=0):
            rec.clock.advance(1.0)
        rec.event("mac.run", goodput_bps=1e6)
        return rec

    def test_jsonl_shape(self):
        lines = to_jsonl_lines(self._small_recorder())
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "meta"
        assert records[0]["format"] == "repro-telemetry"
        kinds = {r["record"] for r in records}
        assert kinds == {"meta", "counter", "gauge", "span", "event"}

    def test_non_finite_exports_as_null(self):
        records = [json.loads(line)
                   for line in to_jsonl_lines(self._small_recorder())]
        gauge = next(r for r in records if r["record"] == "gauge")
        assert gauge["value"] is None

    def test_jsonl_is_valid_strict_json(self):
        for line in to_jsonl_lines(self._small_recorder()):
            json.loads(line)  # raises on NaN/Infinity literals

    def test_collapsed_stacks_self_time(self):
        rec = Recorder()
        outer = rec.begin("sim.trial")
        rec.clock.advance(1.0)
        with rec.span("transport.transfer"):
            rec.clock.advance(2.0)
        rec.clock.advance(1.0)
        rec.end(outer)
        stacks = dict(
            line.rsplit(" ", 1)
            for line in collapsed_stacks(rec.tracer.finished))
        assert int(stacks["sim.trial"]) == 2_000_000
        assert int(stacks["sim.trial;transport.transfer"]) == 2_000_000


class TestSummary:
    def test_load_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_jsonl("not json at all")
        with pytest.raises(ValueError):
            load_jsonl('{"no": "record field"}')

    def test_summarize_groups_by_subsystem(self):
        rec = Recorder()
        rec.count("mac.frames", 4)
        rec.count("transport.segments", 2)
        with rec.span("mac.run"):
            rec.clock.advance(1.0)
        summary = summarize(load_jsonl("\n".join(to_jsonl_lines(rec))))
        assert set(summary.subsystems) == {"mac", "transport"}
        assert summary.subsystems["mac"].counters["mac.frames"] == 4.0
        assert summary.subsystems["mac"].spans["mac.run"].count == 1
        assert summary.clock_s == pytest.approx(1.0)

    def test_render_mentions_every_metric(self):
        rec = Recorder()
        rec.count("mac.frames", 4)
        rec.gauge("mac.queue_depth", 7.0)
        rec.event("mac.run")
        text = render(summarize(load_jsonl("\n".join(to_jsonl_lines(rec)))))
        for needle in ("mac.frames", "mac.queue_depth", "mac.run",
                       "telemetry summary"):
            assert needle in text

    def test_summarize_skips_histogram_lines_of_older_exports(self):
        rec = Recorder()
        rec.count("chaos.steps", 4)
        with rec.span("chaos.scenario"):
            rec.clock.advance(1.0)
        lines = to_jsonl_lines(rec)
        # A histogram line as exports written before the histogram kind
        # was deleted carry it, in a subsystem nothing else reports.
        histogram = json.dumps(
            {"buckets": [[0.016384, 1]], "count": 1, "max": 0.01,
             "min": 0.01, "name": "mac.latency_s", "record": "histogram",
             "sum": 0.01}, sort_keys=True, separators=(",", ":"))
        older = [*lines[:2], histogram, *lines[2:]]
        summary = summarize(load_jsonl("\n".join(older)))
        assert set(summary.subsystems) == {"chaos"}
        assert render(summary) \
            == render(summarize(load_jsonl("\n".join(lines))))

    def test_spans_to_collapsed_matches_export(self):
        rec = Recorder()
        with rec.span("sim.trial"):
            rec.clock.advance(0.5)
            with rec.span("transport.transfer"):
                rec.clock.advance(0.25)
        records = load_jsonl("\n".join(to_jsonl_lines(rec)))
        assert spans_to_collapsed(records) \
            == collapsed_stacks(rec.tracer.finished)


class TestStackInstrumentation:
    """The wired subsystems actually report, and NullRecorder stays inert."""

    def test_chaos_simulation_reports_and_spans(self):
        from repro.experiments.chaos import run

        rec = Recorder()
        outcome = run("kitchen-sink", seed=3, duration_s=8.0,
                      telemetry=rec)
        counters = {c.name: c.value for c in rec.metrics.counters()}
        assert counters["chaos.steps"] == len(outcome.result.times_s)
        assert counters["resilience.actions"] \
            == len(outcome.result.actions)
        scenario_spans = [s for s in rec.tracer.finished
                          if s.name == "chaos.scenario"]
        assert len(scenario_spans) == 1
        assert scenario_spans[0].attrs["scenario"] == "kitchen-sink"
        assert scenario_spans[0].duration_s == pytest.approx(8.0)

    def test_observability_doc_recorder_example_runs(self):
        """docs/observability.md's recorder example runs as written and
        its ``chaos.steps`` comment shows the value the run counts."""
        doc = (Path(__file__).resolve().parents[1] / "docs"
               / "observability.md").read_text(encoding="utf-8")
        section = doc[doc.index("## The recorder"):]
        start = section.index("```python\n") + len("```python\n")
        example = section[start:section.index("```", start)]
        shown = re.search(r'counter\("chaos\.steps"\)\.value\s+#\s*(\S+)',
                          example)
        assert shown is not None
        namespace: dict[str, object] = {}
        exec(example, namespace)
        tel = namespace["tel"]
        assert isinstance(tel, Recorder)
        assert tel.metrics.counter("chaos.steps").value \
            == float(shown.group(1))

    def test_telemetry_does_not_change_results(self):
        from repro.experiments.chaos import run

        plain = run("kitchen-sink", seed=5, duration_s=6.0)
        traced = run("kitchen-sink", seed=5, duration_s=6.0,
                     telemetry=Recorder())
        assert plain.result.adaptive_delivery_ratio \
            == traced.result.adaptive_delivery_ratio
        assert plain.result.actions == traced.result.actions

    def test_failover_reports_cluster_family(self):
        from repro.experiments.chaos import run_failover

        rec = Recorder()
        outcome = run_failover(seed=0, duration_s=16.0,
                               crash_start_s=4.0, crash_duration_s=6.0,
                               telemetry=rec)
        counters = {c.name: c.value for c in rec.metrics.counters()}
        assert counters["cluster.heartbeat_deaths"] >= 1
        assert counters["cluster.failovers"] \
            == outcome.result.failover_count
        assert counters["cluster.checkpoints"] > 0
        outages = [s for s in rec.tracer.finished
                   if s.name == "cluster.ap_outage"]
        assert outages, "AP recovery should close the outage span"
        assert outages[0].duration_s > 0

    def test_run_stream_yields_incrementally(self):
        stream = serial_trials(lambda rng, index: {"v": index}, 3,
                               master_seed=1)
        first = next(stream)
        assert first.values == {"v": 0}
        assert [r.values["v"] for r in stream] == [1, 2]
