"""Unit tests for the resilience layer (repro.resilience) and the
perturbation hooks it rides on (perturb_breakdown, FDM reallocation)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.link import perturb_breakdown
from repro.faults import LinkDisturbance, scenario_injector
from repro.network.fdm import FdmAllocator
from repro.resilience import (
    DEGRADED,
    HEALTHY,
    OUTAGE,
    ChaosSimulation,
    EwmaEstimator,
    LinkHealthMonitor,
    LinkSupervisor,
)


@pytest.fixture(scope="module")
def link():
    from repro.core.link import facing_link
    return facing_link(4.0)


@pytest.fixture(scope="module")
def clean(link):
    return link.snr_breakdown()


class TestEwmaEstimator:
    def test_first_sample_seeds_estimate(self):
        est = EwmaEstimator(alpha=0.5)
        assert est.update(10.0) == 10.0

    def test_smoothing(self):
        est = EwmaEstimator(alpha=0.5)
        est.update(10.0)
        assert est.update(20.0) == pytest.approx(15.0)

    def test_nonfinite_clamps_hard(self):
        est = EwmaEstimator(alpha=0.1)
        est.update(30.0)
        assert est.update(float("-inf")) == float("-inf")
        # Recovery re-seeds rather than averaging with -inf.
        assert est.update(25.0) == 25.0

    def test_reset(self):
        est = EwmaEstimator()
        est.update(5.0)
        est.reset()
        assert est.update(20.0) == 20.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=0.0)


class TestLinkHealthMonitor:
    def test_state_ladder_down_and_up(self):
        monitor = LinkHealthMonitor(alpha=1.0)  # no smoothing
        assert monitor.observe(0.0, 30.0) == HEALTHY
        assert monitor.observe(1.0, 12.0) == DEGRADED
        assert monitor.observe(2.0, 5.0) == OUTAGE
        # Hysteresis: must clear threshold + margin to climb back.
        assert monitor.observe(3.0, 10.5) == OUTAGE
        assert monitor.observe(4.0, 13.0) == DEGRADED
        assert monitor.observe(5.0, 16.0) == DEGRADED
        assert monitor.observe(6.0, 20.0) == HEALTHY

    def test_time_order_enforced(self):
        monitor = LinkHealthMonitor()
        monitor.observe(1.0, 20.0)
        with pytest.raises(ValueError):
            monitor.observe(0.5, 20.0)

    def test_report_availability_and_mttr(self):
        monitor = LinkHealthMonitor(alpha=1.0)
        for i, snr in enumerate([30.0, 30.0, 0.0, 0.0, 30.0, 30.0,
                                 30.0, 30.0]):
            monitor.observe(float(i), snr)
        report = monitor.report()
        assert 0.0 <= report.availability <= 1.0
        assert report.outage_count == 1
        assert report.mttr_s == pytest.approx(2.0)
        assert report.min_snr_db == 0.0

    def test_report_requires_samples(self):
        with pytest.raises(ValueError):
            LinkHealthMonitor().report()

    def test_nan_time_refused(self):
        with pytest.raises(ValueError):
            LinkHealthMonitor().observe(float("nan"), 30.0)
        monitor = LinkHealthMonitor()
        monitor.observe(1.0, 30.0)
        with pytest.raises(ValueError):
            monitor.observe(float("nan"), 30.0)
        with pytest.raises(ValueError):
            monitor.observe(0.5, 30.0)
        monitor.observe(1.5, 30.0)
        assert monitor.report().duration_s == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"outage_db": float("nan")},
        {"outage_db": float("inf")},
        {"degraded_margin_db": float("nan")},
        {"degraded_margin_db": 0.0},
        {"degraded_margin_db": float("inf")},
        {"hysteresis_db": float("nan")},
        {"hysteresis_db": -1.0},
        {"hysteresis_db": float("inf")},
        {"alpha": float("nan")},
    ])
    def test_bad_parameters_refused(self, kwargs):
        with pytest.raises(ValueError):
            LinkHealthMonitor(**kwargs)

    def test_degraded_link_recovers_past_the_hysteresis(self):
        """The climb a NaN hysteresis would block: 12 dB x5 degrades
        the link, 40 dB x30 brings it back."""
        monitor = LinkHealthMonitor()
        samples = [12.0] * 5 + [40.0] * 30
        states = [monitor.observe(0.1 * i, snr)
                  for i, snr in enumerate(samples)]
        assert DEGRADED in states
        assert states[-1] == HEALTHY


class TestPerturbBreakdown:
    def test_clear_disturbance_keeps_the_clean_breakdown(self, clean, link):
        # Not bitwise: the SNRs are recomputed from the levels, which
        # can move them in the last ulps.
        out = perturb_breakdown(clean, LinkDisturbance(), link.config)
        assert out.beam1_level_dbm == clean.beam1_level_dbm
        assert out.beam0_level_dbm == clean.beam0_level_dbm
        assert out.inverted == clean.inverted
        for name in ("noise_dbm", "ask_snr_db", "fsk_snr_db",
                     "no_otam_snr_db", "otam_snr_db"):
            assert getattr(out, name) == pytest.approx(
                getattr(clean, name), rel=0.0, abs=1e-9)

    def test_node_down_silences_everything(self, clean, link):
        out = perturb_breakdown(clean, LinkDisturbance(node_down=True),
                                link.config)
        assert out.ask_snr_db == float("-inf")
        assert out.fsk_snr_db == float("-inf")

    def test_blockage_reduces_snr(self, clean, link):
        out = perturb_breakdown(
            clean, LinkDisturbance(beam1_extra_loss_db=25.0,
                                   beam0_extra_loss_db=6.25), link.config)
        assert out.otam_snr_db < clean.otam_snr_db

    def test_stuck_beam_kills_ask_not_fsk(self, clean, link):
        out = perturb_breakdown(clean, LinkDisturbance(stuck_beam=1),
                                link.config)
        assert out.ask_snr_db == float("-inf")
        assert out.fsk_snr_db > 10.0

    def test_interference_raises_measured_noise(self, clean, link):
        jam = clean.noise_dbm + 20.0
        out = perturb_breakdown(clean,
                                LinkDisturbance(interference_dbm=jam),
                                link.config)
        assert out.noise_dbm > clean.noise_dbm + 19.0
        assert out.otam_snr_db < clean.otam_snr_db

    def test_drift_detunes_fsk_only(self, clean, link):
        half = link.config.tone_separation_hz / 2.0
        out = perturb_breakdown(clean,
                                LinkDisturbance(vco_offset_hz=half),
                                link.config)
        assert out.fsk_snr_db < clean.fsk_snr_db
        assert out.ask_snr_db == pytest.approx(clean.ask_snr_db)

    def test_drift_beyond_separation_kills_fsk(self, clean, link):
        out = perturb_breakdown(
            clean,
            LinkDisturbance(vco_offset_hz=link.config.tone_separation_hz),
            link.config)
        assert out.fsk_snr_db == float("-inf")


class TestLinkSupervisor:
    @pytest.mark.parametrize("kwargs", [
        {"payload_bytes": 0},
        {"reinit_backoff_s": float("nan")},
        {"reinit_backoff_s": 0.0},
        {"max_backoff_s": float("nan")},
        {"max_backoff_s": 0.1},
        {"backoff_factor": float("nan")},
        {"backoff_factor": 0.5},
        {"backoff_jitter": float("nan")},
        {"noise_jump_db": float("nan")},
        {"noise_jump_db": 0.0},
        {"recovery_hold_s": float("nan")},
        {"recovery_hold_s": -5.0},
    ])
    def test_bad_parameters_refused(self, kwargs):
        with pytest.raises(ValueError):
            LinkSupervisor(**kwargs)

    def test_clean_link_never_acts(self, clean):
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        for i in range(20):
            decision = supervisor.step(i * 0.1, clean)
            assert decision.transmitting
        assert supervisor.actions == []

    def test_stuck_beam_triggers_fsk_fallback(self, clean, link):
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        stuck = perturb_breakdown(clean, LinkDisturbance(stuck_beam=1),
                                  link.config)
        decision = None
        for i in range(10):
            decision = supervisor.step(i * 0.1, stuck)
        assert decision.branch == "fsk"
        assert decision.frame_success > 0.99
        assert any(a.policy == "branch-fallback" for a in supervisor.actions)

    def test_dropout_and_reinit(self, clean):
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        supervisor.step(0.0, clean, node_down=True)
        assert not supervisor.initialized
        assert any(a.policy == "link-lost" for a in supervisor.actions)
        # Power back, side channel up: one handshake step, then traffic.
        supervisor.step(0.1, clean)
        assert supervisor.initialized
        assert any(a.policy == "reinit-success" for a in supervisor.actions)
        decision = supervisor.step(0.2, clean)
        assert decision.transmitting

    def test_reinit_backoff_grows_when_side_channel_down(self, clean):
        supervisor = LinkSupervisor(rng=np.random.default_rng(0),
                                    backoff_jitter=0.0)
        supervisor.step(0.0, clean, node_down=True)
        t = 0.1
        while not supervisor.initialized and t < 30.0:
            supervisor.step(t, clean, side_channel_up=False)
            t += 0.1
        attempts = [a for a in supervisor.actions
                    if a.policy == "reinit-attempt"]
        backoffs = [a for a in supervisor.actions
                    if a.policy == "reinit-backoff"]
        assert len(attempts) >= 4
        assert len(backoffs) == len(attempts)
        # Jitter off: delays double (0.2, 0.4, 0.8 ...) up to the cap.
        gaps = [b.detail for b in backoffs[:3]]
        assert gaps == ["retry in 200 ms", "retry in 400 ms",
                        "retry in 800 ms"]

    def test_noise_jump_triggers_one_reallocation(self, clean, link):
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        moves = []
        supervisor.step(0.0, clean, reallocate=lambda: moves.append(1) or True)
        jammed = perturb_breakdown(
            clean, LinkDisturbance(interference_dbm=clean.noise_dbm + 15.0),
            link.config)
        for i in range(1, 6):
            supervisor.step(i * 0.1, jammed,
                            reallocate=lambda: moves.append(1) or True)
        assert supervisor.channel_moves == 1
        assert len(moves) == 1


class TestChaosSimulation:
    def test_deterministic_from_master_seed(self, link):
        runs = []
        for _ in range(2):
            sim = ChaosSimulation(link, time_step_s=0.25)
            runs.append(sim.run(
                scenario_injector("kitchen-sink", master_seed=11), 20.0,
                quiet_tail_s=3.0))
        a, b = runs
        assert np.array_equal(a.adaptive_success, b.adaptive_success)
        assert np.array_equal(a.static_success, b.static_success)
        assert a.schedule.events == b.schedule.events
        assert [x.policy for x in a.actions] == [x.policy for x in b.actions]

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan")])
    def test_bad_time_step_refused(self, link, step):
        with pytest.raises(ValueError):
            ChaosSimulation(link, time_step_s=step)

    def test_quiet_tail_guarantees_recovery_window(self, link):
        sim = ChaosSimulation(link, time_step_s=0.25)
        result = sim.run(scenario_injector("kitchen-sink", master_seed=11),
                         20.0, quiet_tail_s=3.0)
        assert np.isfinite(result.post_fault_snr_db(settle_s=1.0))

    def test_robustness_doc_sample_sweep_is_current(self):
        """docs/robustness.md's sample table is what ``python -m repro
        chaos --scenario all --seed 7 --duration 30`` prints."""
        from repro.experiments import chaos

        doc = (Path(__file__).resolve().parents[1] / "docs"
               / "robustness.md").read_text(encoding="utf-8")
        section = doc[doc.index("Sample sweep ("):]
        start = section.index("```\n") + len("```\n")
        table = section[start:section.index("```", start)]
        assert table.rstrip("\n") == chaos.render_all(
            chaos.run_all(seed=7, duration_s=30.0))


class TestFdmRecoveryHooks:
    def test_reallocate_moves_off_blocked_spectrum(self):
        from repro.admission import AdmissionController

        admission = AdmissionController()
        plan = admission.admit(1, 10e6).plan
        report = admission.mark_interference(plan.low_hz - 1e6,
                                             plan.high_hz + 1e6)
        assert report.moved == (1,)
        moved = admission.allocator.plan_for(1)
        assert moved.bandwidth_hz == plan.bandwidth_hz
        assert moved.low_hz >= plan.high_hz + 1e6
        assert admission.decision_for(1).plan is moved

    def test_allocate_skips_blocked_ranges(self):
        allocator = FdmAllocator()
        allocator.block_range(allocator.band_low_hz,
                              allocator.band_low_hz + 50e6)
        plan = allocator.allocate(1, 10e6)
        assert plan.low_hz >= allocator.band_low_hz + 50e6
        assert allocator.blocked_ranges == (
            (allocator.band_low_hz, allocator.band_low_hz + 50e6),)
