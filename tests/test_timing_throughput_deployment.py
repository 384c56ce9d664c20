"""Tests for link adaptation and deployment planning."""

import pytest

from repro.core.throughput import (
    CODING_MODES,
    RateAdapter,
    frame_success_probability,
    goodput_bps,
)
from repro.network.deployment import Deployment, plan_access_points
from repro.sim.environment import Room
from repro.sim.geometry import Point


class TestFrameSuccess:
    def test_zero_ber_always_succeeds(self):
        for mode in CODING_MODES:
            assert frame_success_probability(0.0, 100, mode) == 1.0

    def test_high_ber_always_fails(self):
        for mode in CODING_MODES:
            assert frame_success_probability(0.4, 100, mode) < 1e-6

    def test_fec_beats_uncoded_at_moderate_ber(self):
        uncoded, hamming = CODING_MODES
        ber = 1e-3
        assert (frame_success_probability(ber, 256, hamming)
                > frame_success_probability(ber, 256, uncoded))

    def test_longer_frames_more_fragile(self):
        uncoded = CODING_MODES[0]
        assert (frame_success_probability(1e-4, 1000, uncoded)
                < frame_success_probability(1e-4, 10, uncoded))

    def test_invalid_ber(self):
        with pytest.raises(ValueError):
            frame_success_probability(1.5, 10, CODING_MODES[0])


class TestGoodput:
    def test_high_snr_approaches_payload_efficiency(self):
        uncoded = CODING_MODES[0]
        rate = goodput_bps(30.0, 1e6, 256, uncoded)
        frame_bits = uncoded.codec().frame_length_bits(256)
        assert rate == pytest.approx(1e6 * 256 * 8 / frame_bits, rel=1e-6)

    def test_fec_halves_peak_rate_roughly(self):
        uncoded, hamming = CODING_MODES
        high = 30.0
        ratio = (goodput_bps(high, 1e6, 256, hamming)
                 / goodput_bps(high, 1e6, 256, uncoded))
        assert 0.5 < ratio < 0.65  # rate 4/7 plus framing overhead

    def test_goodput_vanishes_at_low_snr(self):
        for mode in CODING_MODES:
            assert goodput_bps(-5.0, 1e6, 256, mode) < 1.0

    def test_monotone_in_snr(self):
        uncoded = CODING_MODES[0]
        values = [goodput_bps(s, 1e6, 256, uncoded)
                  for s in (5.0, 8.0, 11.0, 14.0)]
        assert values == sorted(values)


class TestRateAdapter:
    def test_fec_preferred_at_low_snr(self):
        adapter = RateAdapter()
        assert adapter.select(8.0).name == "hamming74"

    def test_uncoded_preferred_at_high_snr(self):
        adapter = RateAdapter()
        assert adapter.select(20.0).name == "uncoded"

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError):
            RateAdapter(modes=())


class TestDeployment:
    def _site(self):
        room = Room.rectangular(width_m=6.0, length_m=40.0,
                                reflection_loss_db=7.0)
        nodes = [Point(1.0, y) for y in (2.0, 10.0, 20.0, 30.0, 38.0)]
        candidates = [Point(3.0, y) for y in (5.0, 20.0, 35.0)]
        return room, nodes, candidates

    def test_assignment_picks_nearest_ish_ap(self):
        room, nodes, candidates = self._site()
        deployment = Deployment(room, [Point(3.0, 5.0), Point(3.0, 35.0)])
        assignments = deployment.assign(nodes)
        assert assignments[0].ap_index == 0   # node at y=2
        assert assignments[-1].ap_index == 1  # node at y=38

    def test_more_aps_no_worse_coverage(self):
        room, nodes, candidates = self._site()
        one = Deployment(room, [candidates[1]]).coverage(nodes, 14.0)
        three = Deployment(room, candidates).coverage(nodes, 14.0)
        assert three >= one

    def test_greedy_planner_covers_when_possible(self):
        room, nodes, candidates = self._site()
        chosen = plan_access_points(room, nodes, candidates,
                                    threshold_db=12.0)
        assert 1 <= len(chosen) <= 3
        assert Deployment(room, chosen).coverage(nodes, 12.0) == 1.0

    def test_planner_respects_max_aps(self):
        room, nodes, candidates = self._site()
        chosen = plan_access_points(room, nodes, candidates,
                                    threshold_db=25.0, max_aps=1)
        assert len(chosen) == 1

    def test_load_accounting(self):
        room, nodes, candidates = self._site()
        deployment = Deployment(room, candidates)
        loads = deployment.load_per_ap(nodes)
        assert sum(loads) == len(nodes)

    def test_empty_deployment_rejected(self):
        room, nodes, _ = self._site()
        with pytest.raises(ValueError):
            Deployment(room, [])

    def test_no_candidates_rejected(self):
        room, nodes, _ = self._site()
        with pytest.raises(ValueError):
            plan_access_points(room, nodes, [])
