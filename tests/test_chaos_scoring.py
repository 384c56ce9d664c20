"""Scoring only what changed in a chaos step changes no bit.

:meth:`ChaosSimulation.run` scores the drift-free half of each distinct
disturbance once, through ``chaos._perturbed`` and a per-run dict, and
only the VCO drift per new disturbance.  The static policy reuses its
last (SNR, frame success) while its breakdown object holds.
:meth:`LinkSupervisor.step` searches its ladder only when an input of
the search changed, and scores each distinct (branch, SNR, coding-mode
index) once through ``supervisor._frame_success``.  The health
monitors append to three parallel lists.  The fault schedule composes
each distinct active set once, through its segment index.

The slow path here patches all of that with the paths it replaced:
``perturb_breakdown`` called on every new disturbance, the static
policy scoring every live step, the ladder searched on every step with
every candidate scored afresh, the monitor appending one tuple per
sample (``tests/resilience_reference.py``), and the schedule scanning
every event per query (``tests/fault_schedule_reference.py``).
Arrays, health reports, action logs and schedules must come out
bit-identical.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import multipath
from repro.core import link as link_module
from repro.core.link import facing_link
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

from . import resilience_reference as reference
from .fault_schedule_reference import ScanSchedule

DISTANCES_M = (2.0, 4.0)
"""Two placements, so a breakdown cached across links would show."""

_SIMS: dict[float, ChaosSimulation] = {}


def _sim(distance_m: float) -> ChaosSimulation:
    """One scored facing link per distance, shared across examples."""
    if distance_m not in _SIMS:
        _SIMS[distance_m] = ChaosSimulation(facing_link(distance_m))
    return _SIMS[distance_m]


def _direct_perturbed(memo, clean, disturbance, config):
    return reference.perturb_breakdown(clean, disturbance, config)


@contextmanager
def _direct_scoring():
    """Score every step afresh with the reference paths, and let the
    schedule scan and compose on every query."""
    with mock.patch.object(chaos_module, "_perturbed", _direct_perturbed), \
            mock.patch.object(chaos_module, "_StaticPolicy",
                              reference.StaticPolicy), \
            mock.patch.object(chaos_module, "LinkHealthMonitor",
                              reference.LinkHealthMonitor), \
            mock.patch.object(supervisor_module, "LinkHealthMonitor",
                              reference.LinkHealthMonitor), \
            mock.patch.object(LinkSupervisor, "step",
                              reference.SearchEveryStep.step), \
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
    return [_bits(_sim(d).run(injector, 12.0, quiet_tail_s=2.0))
            for d in DISTANCES_M]


DRILLS = {
    # A fade that steps the coding down; once healthy again, the hold
    # steps it back up while the SNRs stay put.
    "fade": (FaultEvent("blockage", 1.0, 2.0, severity=15.0),),
    # A dead node first: its disturbance shares every drift-free field
    # but node_down with the live steps after it.
    "dropout-first": (FaultEvent("dropout", 0.0, 2.0),),
    # ASK dead, so the FSK branch decodes while the VCO walks off.
    "stuck-beam-under-drift": (
        FaultEvent("stuck_beam", 1.0, 8.0, severity=1.0),
        FaultEvent("vco_drift", 2.0, 6.0, severity=0.5e6)),
}
"""Scripted schedules, each aimed at one input of the reuse."""


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

    @pytest.mark.parametrize("drill", sorted(DRILLS))
    def test_scripted_drills_match_direct_scoring(self, drill):
        injector = FaultInjector([_Scripted(DRILLS[drill])])
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
        """Each drift-free state is scored once per run; drift steps
        pay the drift penalty alone."""
        scored = []
        drifted = []

        def counting(clean, disturbance):
            scored.append(disturbance)
            return link_module._drift_free(clean, disturbance)

        def counting_drift(part, vco_offset_hz, config):
            drifted.append(vco_offset_hz)
            return link_module._with_drift(part, vco_offset_hz, config)

        sim = _sim(4.0)
        injector = scenario_injector("kitchen-sink")
        per_run = []
        with mock.patch.object(chaos_module, "_drift_free", counting), \
                mock.patch.object(chaos_module, "_with_drift",
                                  counting_drift):
            for _ in range(2):
                result = sim.run(injector, 30.0, quiet_tail_s=3.0)
                keys = [link_module._drift_free_key(d) for d in scored]
                assert len(keys) == len(set(keys))
                assert len(scored) < len(drifted)
                per_run.append(len(scored))
                scored.clear()
                drifted.clear()
        # Repeats are dict hits, and the second run starts afresh.
        assert 1 < per_run[0] < result.times_s.size
        assert per_run[1] == per_run[0]

    def test_held_breakdown_matches_direct_scoring(self):
        """The energy-outage drill: one unchanged breakdown, stepped
        through naps, a dropout and recoveries."""
        clean = _sim(4.0).clean

        def drill():
            supervisor = LinkSupervisor(rng=np.random.default_rng(3))
            decisions = []
            for i in range(120):
                phase = (i // 10) % 4
                decisions.append(supervisor.step(
                    0.1 * i, clean, dormant=phase == 1,
                    node_down=i in (55, 56, 57),
                    side_channel_up=i != 58))
            return (repr(decisions), repr(supervisor.actions),
                    repr(supervisor.monitor.report()))

        fast = drill()
        with _direct_scoring():
            slow = drill()
        assert fast == slow

    def test_held_breakdown_scores_each_candidate_once(self):
        """The energy-outage drill steps one unchanged breakdown."""
        scored = []

        def counting(ber, payload_bytes, mode):
            scored.append((ber, mode.name))
            return frame_success_probability(ber, payload_bytes, mode)

        clean = _sim(4.0).clean
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        with mock.patch.object(supervisor_module,
                               "frame_success_probability", counting):
            for i in range(50):
                supervisor.step(0.1 * i, clean)
        assert len(scored) == len(set(scored))
        assert len(scored) <= 2 * len(supervisor.modes)

    def test_steady_healthy_stretch_searches_the_ladder_once(self):
        """After its first step a steady healthy link scores no
        frame-success candidate: every later step reuses the search."""
        calls = []
        real = supervisor_module._frame_success

        def counting(memo, branch, snr_db, index, modes, payload_bytes):
            calls.append((branch, index))
            return real(memo, branch, snr_db, index, modes, payload_bytes)

        clean = _sim(4.0).clean
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        with mock.patch.object(supervisor_module, "_frame_success",
                               counting):
            first = supervisor.step(0.0, clean)
            searched = len(calls)
            for i in range(1, 50):
                decision = supervisor.step(0.1 * i, clean)
                assert decision.state == "healthy"
                assert decision.frame_success == first.frame_success
        assert searched == 2
        assert len(calls) == searched
        assert supervisor.actions == []


class TestOneTracePerSweep:
    @staticmethod
    @contextmanager
    def _traces():
        """Record every ray trace made inside the block."""
        calls = []
        real = multipath.trace_paths

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with mock.patch.object(multipath, "trace_paths", counting):
            yield calls

    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_each_sweep_traces_the_link_once(self, sweeps):
        with self._traces() as calls:
            for seed in range(sweeps):
                outcomes = chaos_experiment.run_all(seed=seed,
                                                    duration_s=10.0)
                assert len(outcomes) == 7
        assert len(calls) == sweeps

    def test_one_scenario_traces_once(self):
        with self._traces() as calls:
            chaos_experiment.run("drift", seed=0, duration_s=10.0)
        assert len(calls) == 1
