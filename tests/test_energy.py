"""repro.energy: node classes, backscatter, battery invariants, dormancy.

The two module-level invariants of ``repro.energy.battery`` (energy is
never negative; harvest/consume conservation holds at every step) are
property-tested with hypothesis here, alongside the differential test
pinning the backscatter receive path against the closed-form ASK bound
at high SNR, and the end-to-end dormancy semantics: a sleeping fleet
must never look like a dead AP.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    NODE_ACTIVE,
    NODE_DORMANT,
    NODE_SILENT,
    Cluster,
    NodeLivenessTracker,
)
from repro.core.link import bistatic_breakdown
from repro.energy import (
    ACTIVE_CLASS,
    BACKSCATTER_CLASS,
    ENERGY_STATES,
    BackscatterLink,
    DutyCycleScheduler,
    EnergyStateMachine,
    EnergyStore,
    HarvestModel,
    NodeClassSpec,
    node_class,
    rectified_power_w,
)
from repro.hardware.chains import NodeHardware
from repro.hardware.power import PowerStateProfile, active_node_profile
from repro.node import MmxAccessPoint
from repro.phy.ber import ber_ask_table
from repro.phy.preamble import default_preamble_bits


def _burst(rng, payload_bits):
    """A realistic burst: the known preamble, then random payload."""
    return np.concatenate([
        default_preamble_bits(),
        rng.integers(0, 2, size=payload_bits, dtype=np.uint8)])


class TestNodeClassRegistry:
    def test_active_class_is_the_paper_prototype_unchanged(self):
        """Table 1's cells must be reproduced, not re-specified."""
        hw = NodeHardware()
        spec = node_class(ACTIVE_CLASS)
        assert spec.cost_usd == hw.total_cost_usd
        assert spec.active_power_w == pytest.approx(hw.total_power_w)
        assert spec.bitrate_bps == hw.max_bitrate_bps
        assert spec.energy_per_bit_j == pytest.approx(
            hw.total_power_w / hw.max_bitrate_bps)
        assert spec.duty_model == "always-on"

    def test_backscatter_class_capabilities(self):
        spec = node_class(BACKSCATTER_CLASS)
        assert spec.modulation == "backscatter-ask"
        assert spec.active_power_w < 1e-3  # microwatts, not watts

    def test_capability_coherence_enforced(self):
        with pytest.raises(ValueError, match="unknown duty model"):
            NodeClassSpec(name="bad-duty", modulation="ask-fsk",
                          duty_model="sometimes", cost_usd=1.0,
                          power=PowerStateProfile(1.0, 0.5, 0.2, 0.1),
                          bitrate_bps=1e6, range_m=1.0)

    def test_unknown_class_names_the_registry(self):
        with pytest.raises(KeyError, match="mmx-active"):
            node_class("mmx-nonexistent")


class TestActiveNodeProfile:
    def test_aggregate_figures_preserved(self):
        """The per-state split must not move the Table-1 aggregate."""
        hw = NodeHardware()
        profile = active_node_profile(hw)
        assert profile.tx_w == pytest.approx(hw.total_power_w)
        assert profile.tx_w >= profile.rx_w >= profile.idle_w \
            >= profile.sleep_w

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="tx >= rx"):
            PowerStateProfile(tx_w=0.1, rx_w=0.5, idle_w=0.01,
                              sleep_w=0.001)


class TestBistaticBudget:
    def test_levels_fall_with_distance(self):
        near = bistatic_breakdown(downlink_m=0.5)
        far = bistatic_breakdown(downlink_m=2.0)
        # Two trips: each doubling of distance costs ~12 dB round trip.
        assert near.on_level_dbm - far.on_level_dbm == pytest.approx(
            4 * 20 * np.log10(2.0), abs=0.1)
        assert near.ask_snr_db > far.ask_snr_db

    def test_reflection_contrast_orders_levels(self):
        bd = bistatic_breakdown(downlink_m=1.0)
        assert bd.on_level_dbm > bd.off_level_dbm
        assert bd.carrier_at_tag_dbm > bd.on_level_dbm

    def test_perfect_absorber_off_state(self):
        bd = bistatic_breakdown(downlink_m=1.0, gamma_off=0.0)
        assert bd.off_level_dbm == float("-inf")

    def test_gamma_ordering_validated(self):
        with pytest.raises(ValueError):
            bistatic_breakdown(downlink_m=1.0, gamma_on=0.1,
                               gamma_off=0.8)

    # NaN passes a check written ``d <= 0``, and inf walks the budget
    # to a BER instead of an error.
    @pytest.mark.parametrize("field", ["downlink_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_distances_validated(self, field, value):
        with pytest.raises(ValueError, match="distance"):
            bistatic_breakdown(**{field: value})

    @pytest.mark.parametrize("field", ["conversion_loss_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_losses_validated(self, field, value):
        with pytest.raises(ValueError, match="losses"):
            bistatic_breakdown(downlink_m=1.0, **{field: value})


class TestBackscatterLink:
    def test_high_snr_ber_pins_the_closed_form(self, rng):
        """Differential test: measured BER vs the analytic ASK bound.

        At short range the closed form predicts an astronomically
        clean link; the sample-level envelope/Goertzel path must agree
        (zero errors over thousands of bits — a single error would
        already be >10 orders above the bound).
        """
        link = BackscatterLink(downlink_m=0.5)
        assert float(ber_ask_table(link.breakdown().ask_snr_db)) < 1e-12
        report = link.simulate_transmission(_burst(rng, 4000), rng=rng)
        assert report.ber == 0.0

    def test_decodes_through_the_ask_branch(self, rng):
        """Both bits ride one tone, so only the ASK branch can decide."""
        link = BackscatterLink(downlink_m=0.5)
        report = link.simulate_transmission(_burst(rng, 256), rng=rng)
        assert report.demod.branch == "ask"

    def test_rejects_non_backscatter_class(self):
        with pytest.raises(ValueError, match="not a backscatter"):
            BackscatterLink(spec=node_class(ACTIVE_CLASS))


class TestHarvestModel:
    def test_rectifier_never_exceeds_incident(self):
        for incident in (0.0, 1e-6, 8e-5, 5e-4, 1e-2):
            out = rectified_power_w(incident, saturation_w=1e-3,
                                    steepness_per_w=3e4, midpoint_w=8e-5)
            assert 0.0 <= out <= incident

    def test_rectifier_is_monotone_and_saturates(self):
        levels = [rectified_power_w(p, saturation_w=1e-3,
                                    steepness_per_w=3e4, midpoint_w=8e-5)
                  for p in np.linspace(0.0, 5e-3, 50)]
        assert all(b >= a - 1e-18 for a, b in zip(levels, levels[1:]))
        assert levels[-1] <= 1e-3

    def test_dark_rectenna_harvests_nothing(self):
        assert rectified_power_w(0.0, saturation_w=1e-3,
                                 steepness_per_w=3e4,
                                 midpoint_w=8e-5) == 0.0

    def test_series_is_seed_deterministic(self):
        model = HarvestModel()
        a = model.harvest_series(1.0, 64, np.random.default_rng(3))
        b = model.harvest_series(1.0, 64, np.random.default_rng(3))
        assert np.array_equal(a, b)
        c = model.harvest_series(1.0, 64, np.random.default_rng(4))
        assert not np.array_equal(a, c)

    def test_harvest_falls_with_range(self):
        model = HarvestModel(shadowing_sigma_db=0.0)
        assert model.harvested_power_w(0.5) > model.harvested_power_w(2.0)


class TestEnergyStore:
    @given(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
                    min_size=1, max_size=64))
    @settings(max_examples=60)
    def test_never_negative_and_conserving(self, flows):
        store = EnergyStore(capacity_j=1.0, initial_j=0.25)
        for deposit, withdraw in flows:
            store.deposit(deposit)
            store.withdraw(withdraw)
            assert 0.0 <= store.level_j <= store.capacity_j
            assert abs(store.conservation_error_j) < 1e-9

    def test_overdraft_impossible(self):
        store = EnergyStore(capacity_j=1.0, initial_j=0.1)
        assert store.withdraw(5.0) == pytest.approx(0.1)
        assert store.level_j == 0.0

    def test_spill_accounted(self):
        store = EnergyStore(capacity_j=1.0, initial_j=0.9)
        stored = store.deposit(0.5)
        assert stored == pytest.approx(0.1)
        assert abs(store.conservation_error_j) < 1e-12

    def test_negative_flows_rejected(self):
        store = EnergyStore(capacity_j=1.0)
        with pytest.raises(ValueError):
            store.deposit(-0.1)
        with pytest.raises(ValueError):
            store.withdraw(-0.1)


def _machine(initial_j=0.0, wake_j=0.4, reserve_j=0.05,
             frame_energy_j=0.02, capacity_j=1.0):
    store = EnergyStore(capacity_j=capacity_j, initial_j=initial_j)
    profile = PowerStateProfile(tx_w=0.2, rx_w=0.05, idle_w=0.02,
                                sleep_w=0.001)
    return EnergyStateMachine(store, profile, wake_threshold_j=wake_j,
                              reserve_j=reserve_j,
                              frame_energy_j=frame_energy_j,
                              frames_per_step=4)


class TestEnergyStateMachine:
    @given(st.lists(st.tuples(st.floats(0.0, 0.5), st.integers(0, 6)),
                    min_size=1, max_size=80))
    @settings(max_examples=60)
    def test_energy_invariants_hold_every_step(self, trace):
        machine = _machine()
        for harvest_w, pending in trace:
            outcome = machine.step(1.0, harvest_w, pending)
            assert machine.store.level_j >= 0.0
            assert abs(machine.store.conservation_error_j) < 1e-9
            assert outcome.state in ENERGY_STATES
            assert outcome.level_j == pytest.approx(
                machine.store.level_j)

    def test_trajectory_is_seed_deterministic(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            series = HarvestModel().harvest_series(1.0, 50, rng)
            machine = _machine()
            return [machine.step(1.0, float(w), 2) for w in series]

        a, b, c = run(11), run(11), run(12)
        assert a == b
        assert a != c

    def test_walks_the_duty_cycle(self):
        machine = _machine()
        assert machine.state == "charge"
        assert machine.dormant
        # Charge until the wake threshold, then boot, then transmit.
        seen = [machine.step(1.0, 0.1, pending_frames=3).state
                for _ in range(8)]
        assert seen[0] == "charge"
        assert "wake" in seen
        assert "transmit" in seen
        assert seen.index("wake") < seen.index("transmit")

    def test_brownout_drops_back_to_charge(self):
        machine = _machine(initial_j=0.45)
        states = [machine.step(1.0, 0.0, pending_frames=10).state
                  for _ in range(12)]
        assert "transmit" in states
        assert machine.state == "charge"
        assert machine.store.level_j >= 0.0

    def test_duty_cycle_counts_transmit_steps(self):
        machine = _machine(initial_j=1.0)
        for _ in range(4):
            machine.step(1.0, 0.0, pending_frames=1)
        assert machine.duty_cycle() == pytest.approx(
            machine.state_steps["transmit"] / 4)

    def test_hysteresis_rails_validated(self):
        store = EnergyStore(capacity_j=1.0)
        profile = PowerStateProfile(tx_w=0.2, rx_w=0.05, idle_w=0.02,
                                    sleep_w=0.001)
        with pytest.raises(ValueError):
            EnergyStateMachine(store, profile, wake_threshold_j=0.1,
                               reserve_j=0.2)
        with pytest.raises(ValueError):
            EnergyStateMachine(store, profile, wake_threshold_j=2.0)


class TestDutyCycleScheduler:
    def test_dormant_defers_instead_of_dropping(self):
        scheduler = DutyCycleScheduler(_machine(),
                                       frame_success_probability=1.0)
        rng = np.random.default_rng(0)
        scheduler.offer(5)
        for _ in range(3):  # zero harvest: stays dormant
            scheduler.step(1.0, 0.0, rng)
        stats = scheduler.stats()
        assert stats.dormant_steps == 3
        assert stats.pending == 5
        assert stats.dropped == 0
        assert stats.delivered == 0

    def test_energized_node_delivers_everything(self):
        scheduler = DutyCycleScheduler(_machine(initial_j=1.0),
                                       frame_success_probability=1.0)
        rng = np.random.default_rng(0)
        scheduler.offer(4)
        for _ in range(6):
            scheduler.step(1.0, 0.2, rng)
        stats = scheduler.stats()
        assert stats.delivered == 4
        assert stats.delivery_ratio == 1.0

    def test_retry_budget_then_drop(self):
        scheduler = DutyCycleScheduler(_machine(initial_j=1.0),
                                       frame_success_probability=0.0,
                                       max_retries=2)
        rng = np.random.default_rng(0)
        scheduler.offer(1)
        for _ in range(10):
            scheduler.step(1.0, 0.2, rng)
        stats = scheduler.stats()
        assert stats.retries == 2
        assert stats.dropped == 1
        assert stats.delivered == 0


class TestDormantSupervision:
    def _clean_breakdown(self):
        from repro.core.link import facing_link

        return facing_link(3.0).snr_breakdown()

    def test_dormant_holds_the_ladder(self):
        from repro.resilience import DORMANT, LinkSupervisor

        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        clean = self._clean_breakdown()
        supervisor.step(0.0, clean)
        d1 = supervisor.step(1.0, clean, dormant=True)
        d2 = supervisor.step(2.0, clean, dormant=True)
        assert d1.state == DORMANT
        assert d2.state == DORMANT
        holds = [a for a in supervisor.actions
                 if a.policy == "dormant-hold"]
        assert len(holds) == 1  # logged once per sleep, not per step
        woke = supervisor.step(3.0, clean)
        assert woke.state != DORMANT
        assert any(a.policy == "dormant-wake"
                   for a in supervisor.actions)

    def test_node_down_wins_over_dormant(self):
        from repro.resilience import DORMANT, LinkSupervisor

        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        decision = supervisor.step(0.0, self._clean_breakdown(),
                                   node_down=True, dormant=True)
        assert decision.state != DORMANT


class TestNodeLivenessTracker:
    def test_reason_codes(self):
        tracker = NodeLivenessTracker(interval_s=1.0, miss_threshold=3)
        tracker.watch(7, now_s=0.0)
        assert tracker.classify(7, now_s=1.0) == NODE_ACTIVE
        assert tracker.classify(7, now_s=10.0) == NODE_SILENT
        tracker.mark_dormant(7)
        assert tracker.classify(7, now_s=10.0) == NODE_DORMANT
        tracker.heard(7, now_s=11.0)
        assert tracker.classify(7, now_s=11.5) == NODE_ACTIVE

    def test_sleeping_fleet_does_not_trigger_failover(self):
        """Satellite regression: dormant ≠ dead at the cluster layer.

        Every node on AP 0 goes energy-dormant.  Their silence must be
        *explained* silence — zero failovers, zero migrations, the AP
        stays primary no matter how long the fleet sleeps.
        """
        liveness = NodeLivenessTracker(interval_s=0.5, miss_threshold=3)
        cluster = Cluster([MmxAccessPoint(), MmxAccessPoint()],
                          liveness=liveness)
        for node_id in range(4):
            cluster.register_node(node_id, 1e6, preference=[0, 1],
                                  now_s=0.0)
        for node_id in range(4):
            cluster.node_dormant(node_id)
        for step in range(1, 200):
            cluster.step(step * 0.5)
        assert cluster.silence_failovers == 0
        assert 0 in cluster.alive_ap_ids()

    def test_unexplained_silence_does_trigger_failover(self):
        """The converse gate: truly silent fleets still fail over."""
        liveness = NodeLivenessTracker(interval_s=0.5, miss_threshold=3)
        cluster = Cluster([MmxAccessPoint(), MmxAccessPoint()],
                          liveness=liveness)
        for node_id in range(4):
            cluster.register_node(node_id, 1e6, preference=[0, 1],
                                  now_s=0.0)
        migrated = {}
        # Run exactly through the detection window (interval × misses
        # = 1.5 s): the still-silent survivors would take down the
        # standby AP too on later steps, by design.
        for step in range(1, 4):
            migrated.update(cluster.step(step * 0.5))
        assert cluster.silence_failovers == 1
        assert 0 not in cluster.alive_ap_ids()
        assert len(migrated.get(0, [])) == 4


class TestEnergyCampaigns:
    def test_compare_is_deterministic_and_extends_table1(self):
        from repro.energy import compare

        cfg = compare.default_config(replicates=2, num_bits=128)
        a = compare.run_compare(cfg, master_seed=5)
        b = compare.run_compare(cfg, master_seed=5)
        assert a.rows() == b.rows()
        rows = {r["node_class"]: r for r in a.rows()}
        active = rows["mmx-active"]
        tag = rows["mmx-backscatter"]
        assert tag["cost_usd"] < active["cost_usd"] / 10
        assert tag["active_power_w"] < active["active_power_w"] / 1e3
        assert active["duty_cycle"] == 1.0
        assert 0.0 < tag["duty_cycle"] < 1.0

    def test_outage_recovers_without_false_positives(self):
        from repro.energy import outage

        cfg = outage.OutageConfig(nodes=3, replicates=1,
                                  duration_s=60.0, outage_start_s=15.0,
                                  outage_duration_s=15.0)
        result = outage.run_outage(cfg, master_seed=5)
        summary = result.summary()
        assert summary["silence_failovers"] == 0
        assert summary["orphaned_nodes"] == 0
        assert summary["dormant_holds"] >= 1
        assert summary["dormant_wakes"] >= 1


_NON_FINITE = [math.nan, math.inf, -math.inf]


class TestCampaignConfigValidation:
    """Non-finite times and distances are refused when the config is built.

    ``x <= 0`` is False for NaN, so a check written that way let a NaN
    ``dt_s`` through to the campaign, which then failed after its trials
    had run (or, under ``python -O``, reported a zero duty cycle).
    """

    @pytest.mark.parametrize("dt_s", [*_NON_FINITE, 0.0, -1.0])
    def test_compare_refuses_dt(self, dt_s):
        from repro.energy import compare

        with pytest.raises(ValueError, match="simulation horizon"):
            dataclasses.replace(
                compare.default_config(replicates=1, num_bits=50),
                dt_s=dt_s)

    # A NaN or infinite tag distance ran the whole campaign to a BER of
    # about 0.55 with delivery 0; a NaN harvest distance failed only
    # after every trial, on the energy store's conservation check.
    @pytest.mark.parametrize("field", ["active_distance_m",
                                       "backscatter_distance_m",
                                       "harvest_distance_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_compare_refuses_distance(self, field, value):
        from repro.energy import compare

        with pytest.raises(ValueError, match=field):
            dataclasses.replace(
                compare.default_config(replicates=1, num_bits=50),
                **{field: value})

    @pytest.mark.parametrize("field", ["duration_s", "dt_s"])
    @pytest.mark.parametrize("value", [*_NON_FINITE, 0.0])
    def test_outage_refuses_horizon(self, field, value):
        from repro.energy import outage

        with pytest.raises(ValueError, match="simulation horizon"):
            outage.OutageConfig(**{field: value})

    @pytest.mark.parametrize("field", ["outage_start_s", "outage_duration_s"])
    @pytest.mark.parametrize("value", _NON_FINITE)
    def test_outage_refuses_window(self, field, value):
        from repro.energy import outage

        with pytest.raises(ValueError, match="outage window"):
            outage.OutageConfig(**{field: value})

    def test_finite_values_still_build(self):
        from repro.energy import compare, outage

        assert dataclasses.replace(compare.default_config(),
                                   dt_s=0.5).dt_s == 0.5
        cfg = outage.OutageConfig(duration_s=60.0, dt_s=0.5,
                                  outage_start_s=0.0,
                                  outage_duration_s=10.0)
        assert cfg.num_steps == 120
