"""Telemetry overhead gate: recording must be cheap, null must be free.

The instrumentation contract (docs/observability.md) is that the
default :class:`~repro.telemetry.NullRecorder` costs essentially
nothing — hot loops guard whole blocks behind ``telemetry.enabled`` —
and that a live :class:`~repro.telemetry.Recorder` stays under 5%
end-to-end on a realistic chaos workload.  Wall-clock timing is
noisy, and a chaos run is short, so the three configurations are timed
side by side: every round runs each one once, flipping the order
every round, and each overhead is the median over rounds of that
round's ratio to the uninstrumented run.  Host noise that hits one
round hits its three runs alike and cancels in the ratio.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from repro.core.link import OtamLink
from repro.faults import scenario_injector
from repro.resilience import ChaosSimulation
from repro.sim.environment import default_lab_room
from repro.sim.geometry import Point, angle_of
from repro.sim.placement import Placement
from repro.telemetry import NullRecorder, Recorder

from conftest import interleaved_times, median_ratio, record

ROUNDS = 101
DURATION_S = 20.0
TIME_STEP_S = 0.05
NULL_OVERHEAD_LIMIT = 0.03
"""NullRecorder must be within timing noise of the uninstrumented path."""

RECORDING_OVERHEAD_LIMIT = 0.05
"""The ISSUE gate: a live Recorder costs < 5% on the chaos workload."""


def _chaos_sim(telemetry) -> ChaosSimulation:
    """The benchmark workload: the kitchen-sink scenario, mid-room."""
    room = default_lab_room()
    ap = Point(room.width_m / 2.0, 0.15)
    node = Point(room.width_m / 2.0, 4.15)
    placement = Placement(node, angle_of(node, ap), ap, math.pi / 2)
    link = OtamLink(placement=placement, room=room)
    injector = scenario_injector("kitchen-sink", master_seed=0)
    return ChaosSimulation(link, injector, time_step_s=TIME_STEP_S,
                           telemetry=telemetry)


def test_telemetry_overhead_gates():
    recorder = Recorder()
    sims = [_chaos_sim(telemetry)
            for telemetry in (None, NullRecorder(), recorder)]
    for sim in sims:
        sim.run(DURATION_S)  # warm-up: JIT nothing, but fill caches
    baseline, null, recording = interleaved_times(
        [lambda sim=sim: sim.run(DURATION_S) for sim in sims], ROUNDS)

    null_overhead = median_ratio(null, baseline) - 1.0
    recording_overhead = median_ratio(recording, baseline) - 1.0

    steps = int(round(DURATION_S / TIME_STEP_S))
    text = "\n".join([
        f"chaos workload: kitchen-sink, {DURATION_S:.0f} s simulated, "
        f"{steps} steps, {ROUNDS} interleaved rounds",
        "  (median run; overheads are medians of per-round ratios)",
        f"  baseline (telemetry=None) : "
        f"{statistics.median(baseline) * 1e3:8.1f} ms",
        f"  NullRecorder              : "
        f"{statistics.median(null) * 1e3:8.1f} ms ({null_overhead:+.1%})",
        f"  Recorder (full recording) : "
        f"{statistics.median(recording) * 1e3:8.1f} ms "
        f"({recording_overhead:+.1%})",
        f"  gates: null < {NULL_OVERHEAD_LIMIT:.0%}, "
        f"recording < {RECORDING_OVERHEAD_LIMIT:.0%}",
    ])
    record("telemetry_overhead", text)

    assert null_overhead < NULL_OVERHEAD_LIMIT, (
        f"NullRecorder overhead {null_overhead:.1%} exceeds "
        f"{NULL_OVERHEAD_LIMIT:.0%} — the enabled-guard contract broke")
    assert recording_overhead < RECORDING_OVERHEAD_LIMIT, (
        f"Recorder overhead {recording_overhead:.1%} exceeds "
        f"{RECORDING_OVERHEAD_LIMIT:.0%}")

    # The recording run must actually have recorded — an accidentally
    # disabled recorder would pass the gates vacuously.
    assert recorder.counters["chaos.steps"] \
        == float(steps * (1 + ROUNDS))


def test_recording_throughput_sane():
    """Raw verb cost: a Recorder sustains >1e5 counter bumps/second.

    Not a comparative gate — a floor so a pathological regression (say,
    re-validating the metric name on every increment) fails loudly.
    """
    recorder = Recorder()
    n = 100_000
    rng = np.random.default_rng(0)
    values = rng.random(n)
    start = time.perf_counter()
    for value in values:
        recorder.count("bench.counter", 1.0)
        recorder.gauge("bench.level", float(value))
    elapsed = time.perf_counter() - start
    rate = 2 * n / elapsed
    assert rate > 1e5, f"telemetry verbs at {rate:.0f}/s are too slow"
