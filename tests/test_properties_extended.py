"""Additional property-based tests: throughput, scheduling, TMA."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.throughput import CODING_MODES, frame_success_probability, goodput_bps
from repro.network.sdm_scheduler import (
    AngularSdmScheduler,
    assignment_min_separation_rad,
)
from repro.sim.environment import default_lab_room
from repro.sim.placement import PlacementSampler


class TestThroughputProperties:
    bers = st.floats(min_value=0.0, max_value=0.3)

    @given(bers, bers, st.integers(min_value=1, max_value=512))
    @settings(max_examples=40)
    def test_frame_success_monotone_in_ber(self, a, b, payload):
        lo, hi = min(a, b), max(a, b)
        for mode in CODING_MODES:
            assert (frame_success_probability(lo, payload, mode)
                    >= frame_success_probability(hi, payload, mode) - 1e-12)

    @given(st.floats(min_value=-10, max_value=40),
           st.integers(min_value=1, max_value=512))
    @settings(max_examples=40)
    def test_goodput_bounded_by_link_rate(self, snr, payload):
        for mode in CODING_MODES:
            rate = goodput_bps(snr, 1e6, payload, mode)
            assert 0.0 <= rate <= 1e6

    @given(st.floats(min_value=0.0, max_value=0.3),
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=40)
    def test_success_is_probability(self, ber, payload):
        for mode in CODING_MODES:
            p = frame_success_probability(ber, payload, mode)
            assert 0.0 <= p <= 1.0


class TestSchedulerProperties:
    @given(st.integers(min_value=2, max_value=24),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_assignment_is_balanced_and_valid(self, n_nodes, n_channels,
                                              seed):
        room = default_lab_room()
        sampler = PlacementSampler(room, np.random.default_rng(seed))
        placements = sampler.sample_many(n_nodes)
        channels = AngularSdmScheduler(n_channels).assign(placements)
        assert len(channels) == n_nodes
        assert all(0 <= c < n_channels for c in channels)
        counts = [channels.count(c) for c in range(n_channels)]
        assert max(counts) - min(counts) <= 1  # balanced loads

    @given(st.integers(min_value=4, max_value=20),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_separation_metric_bounds(self, n_nodes, seed):
        room = default_lab_room()
        sampler = PlacementSampler(room, np.random.default_rng(seed))
        placements = sampler.sample_many(n_nodes)
        channels = AngularSdmScheduler(3).assign(placements)
        sep = assignment_min_separation_rad(placements, channels)
        assert 0.0 <= sep <= math.pi
