"""Unit tests for the fault-injection framework (repro.faults)."""

import numpy as np
import pytest

from repro.faults import (
    NO_DISTURBANCE,
    SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    LinkDisturbance,
    scenario_injector,
)
from repro.faults.injector import NLOS_BLOCKAGE_FRACTION
from repro.faults.processes import (
    InterfererProcess,
    NodeDropoutProcess,
    PersistentBlockerProcess,
    SideChannelOutageProcess,
    StuckBeamProcess,
    TransientBlockerProcess,
    VcoDriftProcess,
)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="gremlins", start_s=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="blockage", start_s=-0.1, duration_s=1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="blockage", start_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="stuck_beam", start_s=0.0, duration_s=1.0,
                       severity=0.5)
        with pytest.raises(ValueError):
            FaultEvent(kind="interference", start_s=0.0, duration_s=1.0,
                       severity=-60.0)  # no channel named

    def test_active_window_half_open(self):
        event = FaultEvent(kind="blockage", start_s=2.0, duration_s=3.0)
        assert not event.active_at(1.99)
        assert event.active_at(2.0)
        assert event.active_at(4.99)
        assert not event.active_at(5.0)

    def test_rectangular_profile(self):
        event = FaultEvent(kind="blockage", start_s=0.0, duration_s=2.0,
                           severity=30.0)
        assert event.profile(1.0) == 1.0
        assert event.profile(3.0) == 0.0

    def test_drift_profile_is_triangular(self):
        event = FaultEvent(kind="vco_drift", start_s=0.0, duration_s=4.0,
                           severity=1e6)
        assert event.profile(0.0) == 0.0
        assert event.profile(2.0) == pytest.approx(1.0)
        assert event.profile(1.0) == pytest.approx(0.5)
        assert event.profile(3.0) == pytest.approx(0.5)


class TestLinkDisturbance:
    def test_default_is_clear(self):
        assert NO_DISTURBANCE.is_clear
        assert not NO_DISTURBANCE.has_interference

    def test_field_wise_clearness(self):
        assert not LinkDisturbance(node_down=True).is_clear
        assert not LinkDisturbance(stuck_beam=1).is_clear
        assert not LinkDisturbance(side_channel_up=False).is_clear
        assert not LinkDisturbance(interference_dbm=-70.0).is_clear

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkDisturbance(beam1_extra_loss_db=-1.0)
        with pytest.raises(ValueError):
            LinkDisturbance(stuck_beam=2)


class TestFaultSchedule:
    def test_blockage_losses_stack_and_nlos_pays_fraction(self):
        events = [
            FaultEvent(kind="blockage", start_s=0.0, duration_s=10.0,
                       severity=20.0),
            FaultEvent(kind="blockage", start_s=0.0, duration_s=10.0,
                       severity=10.0),
        ]
        d = FaultSchedule(events, duration_s=10.0).disturbance_at(5.0)
        assert d.beam1_extra_loss_db == pytest.approx(30.0)
        assert d.beam0_extra_loss_db == pytest.approx(
            NLOS_BLOCKAGE_FRACTION * 30.0)

    def test_interference_respects_victim_channel(self):
        events = [FaultEvent(kind="interference", start_s=0.0,
                             duration_s=10.0, severity=-60.0,
                             channel_index=0)]
        schedule = FaultSchedule(events, duration_s=10.0)
        assert schedule.disturbance_at(5.0, 0).has_interference
        assert not schedule.disturbance_at(5.0, 1).has_interference
        # None = conservative any-channel view.
        assert schedule.disturbance_at(5.0, None).has_interference

    def test_interference_powers_add_linearly(self):
        events = [FaultEvent(kind="interference", start_s=0.0,
                             duration_s=10.0, severity=-60.0,
                             channel_index=0)] * 2
        d = FaultSchedule(events, duration_s=10.0).disturbance_at(5.0, 0)
        assert d.interference_dbm == pytest.approx(-60.0 + 10 * np.log10(2))

    def test_inactive_instant_is_clear(self):
        events = [FaultEvent(kind="dropout", start_s=5.0, duration_s=1.0)]
        schedule = FaultSchedule(events, duration_s=10.0)
        assert schedule.disturbance_at(2.0) is NO_DISTURBANCE
        assert schedule.disturbance_at(5.5).node_down

    def test_kinds_and_last_end(self):
        events = [
            FaultEvent(kind="dropout", start_s=1.0, duration_s=1.0),
            FaultEvent(kind="blockage", start_s=3.0, duration_s=2.0,
                       severity=20.0),
        ]
        schedule = FaultSchedule(events, duration_s=10.0)
        assert schedule.kinds() == ("blockage", "dropout")
        assert schedule.last_fault_end_s() == pytest.approx(5.0)

    def test_event_after_end_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule([FaultEvent(kind="dropout", start_s=11.0,
                                      duration_s=1.0)], duration_s=10.0)


class TestFaultInjector:
    def test_bit_identical_regeneration(self):
        processes = [TransientBlockerProcess(), NodeDropoutProcess()]
        a = FaultInjector(processes, master_seed=42).schedule(60.0)
        b = FaultInjector(processes, master_seed=42).schedule(60.0)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        processes = [TransientBlockerProcess(rate_per_minute=30.0)]
        a = FaultInjector(processes, master_seed=1).schedule(60.0)
        b = FaultInjector(processes, master_seed=2).schedule(60.0)
        assert a.events != b.events

    def test_per_process_streams_independent(self):
        """Appending a process must not perturb earlier processes' draws
        — the CampaignPlan child-stream discipline."""
        base = [TransientBlockerProcess()]
        extended = base + [NodeDropoutProcess()]
        a = FaultInjector(base, master_seed=7).schedule(60.0)
        b = FaultInjector(extended, master_seed=7).schedule(60.0)
        assert tuple(e for e in b.events if e.kind == "blockage") == a.events

    def test_quiet_tail_clips_events(self):
        injector = FaultInjector(
            [TransientBlockerProcess(rate_per_minute=60.0),
             NodeDropoutProcess(rate_per_minute=30.0)], master_seed=3)
        schedule = injector.schedule(30.0, quiet_tail_s=5.0)
        assert schedule.duration_s == 30.0
        assert schedule.last_fault_end_s() <= 25.0 + 1e-9
        assert schedule.disturbance_at(27.0) is NO_DISTURBANCE

    def test_quiet_tail_must_fit(self):
        injector = FaultInjector([SideChannelOutageProcess()], master_seed=0)
        with pytest.raises(ValueError):
            injector.schedule(10.0, quiet_tail_s=10.0)

    def test_scenarios_all_materialise(self):
        for name in SCENARIOS:
            schedule = scenario_injector(name, master_seed=0).schedule(30.0)
            assert isinstance(schedule, FaultSchedule)
            assert len(schedule.kinds()) >= 1

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_injector("earthquake")


class TestProcesses:
    def test_poisson_rate_roughly_respected(self):
        rng = np.random.default_rng(0)
        process = TransientBlockerProcess(rate_per_minute=30.0)
        counts = [len(process.events(rng, 60.0)) for _ in range(50)]
        assert 20.0 < float(np.mean(counts)) < 40.0

    def test_deterministic_windows_ignore_rng(self):
        for process in (PersistentBlockerProcess(), VcoDriftProcess(),
                        StuckBeamProcess(), SideChannelOutageProcess(),
                        InterfererProcess()):
            a = process.events(np.random.default_rng(0), 30.0)
            b = process.events(np.random.default_rng(99), 30.0)
            assert a == b

    def test_window_beyond_duration_yields_nothing(self):
        assert PersistentBlockerProcess(start_s=50.0).events(
            np.random.default_rng(0), 30.0) == []

    def test_dropouts_do_not_overlap(self):
        rng = np.random.default_rng(1)
        events = NodeDropoutProcess(rate_per_minute=20.0).events(rng, 120.0)
        for first, second in zip(events, events[1:]):
            assert second.start_s >= first.end_s


class TestEnergyOutage:
    def test_harvest_scale_validated_and_clear(self):
        with pytest.raises(ValueError):
            LinkDisturbance(harvest_scale=1.5)
        with pytest.raises(ValueError):
            LinkDisturbance(harvest_scale=-0.1)
        assert not LinkDisturbance(harvest_scale=0.5).is_clear
        assert LinkDisturbance(harvest_scale=1.0).is_clear

    def test_severities_compose_multiplicatively(self):
        from repro.faults.processes import EnergyOutageProcess

        injector = FaultInjector(
            [EnergyOutageProcess(start_s=0.0, duration_s=10.0,
                                 severity=0.5),
             EnergyOutageProcess(start_s=5.0, duration_s=10.0,
                                 severity=0.5)],
            master_seed=0)
        schedule = injector.schedule(20.0)
        assert schedule.disturbance_at(2.0).harvest_scale \
            == pytest.approx(0.5)
        assert schedule.disturbance_at(7.0).harvest_scale \
            == pytest.approx(0.25)
        assert schedule.disturbance_at(16.0).harvest_scale == 1.0

    def test_energy_outage_scenario_blacks_out_harvesting(self):
        schedule = scenario_injector("energy-outage",
                                     master_seed=0).schedule(30.0)
        assert "energy_outage" in schedule.kinds()
        scales = [schedule.disturbance_at(t).harvest_scale
                  for t in np.arange(0.0, 30.0, 0.5)]
        assert min(scales) == 0.0  # a true blackout, not a dip
        assert scales[0] == 1.0 and scales[-1] == 1.0

    def test_harvest_outage_leaves_the_link_budget_alone(self):
        """Starving the rectenna must not also fade the data link."""
        from repro.core.ask_fsk import AskFskConfig
        from repro.core.link import perturb_breakdown
        from repro.experiments.chaos import _facing_link

        clean = _facing_link(3.0).snr_breakdown()
        dark = perturb_breakdown(clean,
                                 LinkDisturbance(harvest_scale=0.0),
                                 AskFskConfig())
        assert dark.ask_snr_db == clean.ask_snr_db
        assert dark.fsk_snr_db == clean.fsk_snr_db
