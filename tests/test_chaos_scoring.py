"""Scoring each distinct link state once per chaos run changes no bit.

:meth:`ChaosSimulation.run` scores every distinct disturbance once,
through ``chaos._perturbed`` and a per-run dict of breakdowns.  Both
link policies score every distinct (branch, SNR, coding-mode index)
once, through ``supervisor._frame_success`` and a per-instance dict.
The fault schedule composes each distinct active set once, through its
segment index.  The slow path here patches those helpers with direct
calls of the pure functions behind them, and the schedule's queries
with the scan they replaced (``tests/fault_schedule_reference.py``),
which is how every step was scored before the dicts and the index
existed.  Arrays, health reports, action logs and schedules must come
out bit-identical.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.link import facing_link, perturb_breakdown
from repro.core.throughput import frame_success_probability
from repro.experiments import chaos as chaos_experiment
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    scenario_injector,
)
from repro.resilience import ChaosSimulation, LinkSupervisor
from repro.resilience import chaos as chaos_module
from repro.resilience import supervisor as supervisor_module

from .fault_schedule_reference import ScanSchedule

DISTANCES_M = (2.0, 4.0)
"""Two placements, so a breakdown cached across links would show."""

_LINKS: dict[float, object] = {}


def _link(distance_m: float):
    """One ray-traced facing link per distance, shared across examples."""
    if distance_m not in _LINKS:
        _LINKS[distance_m] = facing_link(distance_m)
    return _LINKS[distance_m]


def _direct_perturbed(memo, clean, disturbance, config):
    return perturb_breakdown(clean, disturbance, config)


def _direct_frame_success(memo, branch, snr_db, index, modes, payload_bytes):
    return frame_success_probability(
        supervisor_module._branch_ber(branch, snr_db), payload_bytes,
        modes[index])


@contextmanager
def _direct_scoring():
    """Score every step afresh: both memo helpers become direct calls,
    and the schedule scans and composes on every query."""
    with mock.patch.object(chaos_module, "_perturbed", _direct_perturbed), \
            mock.patch.object(chaos_module, "_frame_success",
                              _direct_frame_success), \
            mock.patch.object(supervisor_module, "_frame_success",
                              _direct_frame_success), \
            mock.patch.object(FaultSchedule, "active_at",
                              ScanSchedule.active_at), \
            mock.patch.object(FaultSchedule, "disturbance_at",
                              ScanSchedule.disturbance_at):
        yield


def _bits(result):
    """Everything a ChaosResult reports, compared bit for bit.

    ``repr`` of a float round-trips, so equal reprs mean equal bits
    (and tell -0.0 from 0.0).
    """
    arrays = tuple(a.tobytes() for a in (
        result.times_s, result.adaptive_snr_db, result.static_snr_db,
        result.adaptive_success, result.static_success))
    return (arrays, repr(result.clean_snr_db), repr(result.adaptive_report),
            repr(result.static_report), repr(result.actions),
            result.schedule.events)


@dataclass(frozen=True)
class _Scripted:
    """A fault process that replays fixed events (its RNG is unused)."""

    scripted: tuple[FaultEvent, ...]

    def events(self, rng, duration_s):
        return [e for e in self.scripted if e.start_s < duration_s]


@st.composite
def _fault_events(draw):
    """One valid fault event of any kind the link model reads."""
    kind = draw(st.sampled_from(
        ("blockage", "vco_drift", "stuck_beam", "dropout",
         "side_channel_outage", "interference", "energy_outage")))
    start = draw(st.floats(min_value=0.0, max_value=9.0))
    duration = draw(st.floats(min_value=0.05, max_value=6.0))
    channel = None
    if kind == "blockage":
        severity = draw(st.floats(min_value=0.0, max_value=45.0))
    elif kind == "vco_drift":
        severity = draw(st.floats(min_value=1.0, max_value=3e6))
    elif kind == "stuck_beam":
        severity = float(draw(st.sampled_from((0, 1))))
    elif kind == "interference":
        severity = draw(st.floats(min_value=-95.0, max_value=-40.0))
        channel = draw(st.integers(min_value=0, max_value=1))
    elif kind == "energy_outage":
        severity = draw(st.floats(min_value=0.0, max_value=1.0))
    else:
        severity = 1.0
    return FaultEvent(kind=kind, start_s=start, duration_s=duration,
                      severity=severity, channel_index=channel)


def _run_both_links(injector):
    return [_bits(ChaosSimulation(_link(d), injector).run(
                12.0, quiet_tail_s=2.0))
            for d in DISTANCES_M]


class TestScoringOncePerRun:
    @given(st.lists(_fault_events(), min_size=1, max_size=8),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_schedules_match_direct_scoring(self, events, seed):
        injector = FaultInjector([_Scripted(tuple(events))],
                                 master_seed=seed)
        fast = _run_both_links(injector)
        with _direct_scoring():
            slow = _run_both_links(injector)
        assert fast == slow

    @pytest.mark.parametrize("seed", range(4))
    def test_every_scenario_matches_direct_scoring(self, seed):
        fast = chaos_experiment.run_all(seed=seed, duration_s=30.0)
        with _direct_scoring():
            slow = chaos_experiment.run_all(seed=seed, duration_s=30.0)
        assert [o.scenario for o in fast] == [o.scenario for o in slow]
        assert ([_bits(o.result) for o in fast]
                == [_bits(o.result) for o in slow])

    def test_each_distinct_disturbance_is_scored_once_per_run(self):
        scored = []

        def counting(clean, disturbance, config):
            scored.append(disturbance)
            return perturb_breakdown(clean, disturbance, config)

        sim = ChaosSimulation(_link(4.0), scenario_injector("kitchen-sink"))
        per_run = []
        with mock.patch.object(chaos_module, "perturb_breakdown", counting):
            for _ in range(2):
                result = sim.run(30.0, quiet_tail_s=3.0)
                per_run.append(len(scored))
                assert len(scored) == len(set(scored))
                scored.clear()
        # Repeats are dict hits, and the second run starts afresh.
        assert 1 < per_run[0] < result.times_s.size
        assert per_run[1] == per_run[0]

    def test_held_breakdown_scores_each_candidate_once(self):
        """The energy-outage drill steps one unchanged breakdown."""
        scored = []

        def counting(ber, payload_bytes, mode):
            scored.append((ber, mode.name))
            return frame_success_probability(ber, payload_bytes, mode)

        clean = _link(4.0).snr_breakdown()
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        with mock.patch.object(supervisor_module,
                               "frame_success_probability", counting):
            for i in range(50):
                supervisor.step(0.1 * i, clean)
        assert len(scored) == len(set(scored))
        assert len(scored) <= 2 * len(supervisor.modes)
