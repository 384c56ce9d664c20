"""Tests for timeline simulation, SDM scheduling and spectrum models."""

import math

import numpy as np
import pytest

from repro.baselines.spectrum import (
    MmxCapacityModel,
    WifiChannelModel,
    iot_device_capacity,
)
from repro.network.sdm_scheduler import (
    AngularSdmScheduler,
    RoundRobinScheduler,
    arrival_bearing_rad,
    assignment_min_separation_rad,
)
from repro.sim.environment import Blocker, default_lab_room
from repro.sim.geometry import Point, Segment
from repro.sim.mobility import LinearCrossing, WalkingBlocker, los_blocker_between
from repro.sim.placement import Placement, PlacementSampler
from repro.sim.timeline import LinkTrace, TimelineSimulator


def _facing(distance=4.0):
    return Placement(Point(2.0, 0.15 + distance), -math.pi / 2,
                     Point(2.0, 0.15), math.pi / 2)


class TestLinkTrace:
    def _trace(self, otam, no_otam=None, inverted=None):
        n = len(otam)
        return LinkTrace(
            times_s=np.arange(n) * 0.1,
            otam_snr_db=np.asarray(otam, dtype=float),
            no_otam_snr_db=np.asarray(no_otam if no_otam is not None
                                      else otam, dtype=float),
            inverted=np.asarray(inverted if inverted is not None
                                else [False] * n))

    def test_outage_fraction(self):
        trace = self._trace([20, 5, 5, 20])
        assert trace.outage_fraction(10.0) == pytest.approx(0.5)

    def test_outage_events(self):
        trace = self._trace([20, 5, 5, 20, 5])
        events = trace.outage_events(10.0)
        assert len(events) == 2
        assert events[0][1] == pytest.approx(0.2)

    def test_mean_outage_duration_no_events(self):
        trace = self._trace([20, 20, 20])
        assert trace.mean_outage_duration_s() == 0.0

    def test_polarity_flips(self):
        trace = self._trace([20] * 5,
                            inverted=[False, True, True, False, True])
        assert trace.polarity_flips() == 3


class TestTimelineSimulator:
    def test_static_environment_constant_trace(self):
        room = default_lab_room()
        sim = TimelineSimulator(room, _facing(), time_step_s=0.5)
        trace = sim.run(3.0)
        assert trace.times_s.size == 6
        assert np.allclose(trace.otam_snr_db, trace.otam_snr_db[0])

    def test_walker_modulates_the_link(self):
        room = default_lab_room()
        placement = _facing(4.0)
        crossing = LinearCrossing(Segment(Point(0.4, 2.0), Point(3.6, 2.0)),
                                  speed_mps=1.6)
        walker = WalkingBlocker(
            los_blocker_between(placement.node_position,
                                placement.ap_position), crossing)
        sim = TimelineSimulator(room, placement, walkers=[walker],
                                time_step_s=0.25)
        trace = sim.run(8.0)
        # The baseline visibly dips when the walker crosses.
        assert trace.no_otam_snr_db.min() < trace.no_otam_snr_db.max() - 8.0
        # OTAM's worst moment beats the baseline's worst moment.
        assert trace.otam_snr_db.min() > trace.no_otam_snr_db.min() + 3.0

    def test_static_blockers_restored_after_run(self):
        room = default_lab_room()
        person = Blocker(Point(1.0, 1.0))
        room.add_blocker(person)
        sim = TimelineSimulator(room, _facing(), time_step_s=0.5)
        sim.run(1.0)
        assert room.blockers == [person]

    def test_invalid_parameters(self):
        room = default_lab_room()
        with pytest.raises(ValueError):
            TimelineSimulator(room, _facing(), time_step_s=0.0)
        with pytest.raises(ValueError):
            TimelineSimulator(room, _facing()).run(0.0)


class TestSdmScheduler:
    def _placements(self, n=20, seed=0):
        room = default_lab_room()
        return PlacementSampler(room, np.random.default_rng(seed)).sample_many(n)

    def test_round_robin_pattern(self):
        placements = self._placements(7)
        assert RoundRobinScheduler(3).assign(placements) == [0, 1, 2, 0, 1, 2, 0]

    def test_angular_uses_all_channels(self):
        placements = self._placements(20)
        channels = AngularSdmScheduler(10).assign(placements)
        assert sorted(set(channels)) == list(range(10))
        for c in range(10):
            assert channels.count(c) == 2

    def test_angular_improves_min_separation(self):
        placements = self._placements(20, seed=3)
        rr = RoundRobinScheduler(10).assign(placements)
        ang = AngularSdmScheduler(10).assign(placements)
        assert (assignment_min_separation_rad(placements, ang)
                > assignment_min_separation_rad(placements, rr))

    def test_no_sharing_returns_pi(self):
        placements = self._placements(5)
        channels = list(range(5))
        assert assignment_min_separation_rad(placements, channels) == math.pi

    def test_bearing_sign(self):
        ap = Point(2.0, 0.15)
        left = Placement(Point(0.5, 3.0), 0.0, ap, math.pi / 2)
        right = Placement(Point(3.5, 3.0), 0.0, ap, math.pi / 2)
        assert arrival_bearing_rad(left) > 0 > arrival_bearing_rad(right)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            assignment_min_separation_rad(self._placements(3), [0, 1])

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            AngularSdmScheduler(0).assign(self._placements(2))


class TestWifiChannelModel:
    def test_airtime_accumulates(self):
        wifi = WifiChannelModel()
        share = wifi.airtime_for(1e6)
        assert wifi.admit(1e6)
        assert wifi.admit(1e6)
        # Two devices hold 2 * share: a load needing a little more than
        # the rest of the airtime is refused, a little less admitted.
        rest_bps = (1.0 - 2 * share) / share * 1e6
        assert not wifi.admit(1.01 * rest_bps)
        assert wifi.admit(0.99 * rest_bps)

    def test_saturates(self):
        wifi = WifiChannelModel(low_rate_phy_bps=6e6, efficiency=0.6)
        count = 0
        while wifi.admit(1e6):
            count += 1
        # 1 Mbps at 3.6 Mbps usable -> 0.277 airtime each -> 3 devices.
        assert count == 3

    def test_fast_phy_admits_more(self):
        slow = WifiChannelModel()
        fast = WifiChannelModel(low_rate_phy_bps=120e6)
        n_slow = n_fast = 0
        while slow.admit(1e6):
            n_slow += 1
        while fast.admit(1e6):
            n_fast += 1
        # The paper's §1 point in one assert: the same load admits far
        # fewer devices when each runs a low-rate PHY.
        assert n_fast > 10 * n_slow

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WifiChannelModel(efficiency=0.0)


class TestMmxCapacity:
    def test_capacity_scales_with_band(self):
        small = MmxCapacityModel(band_width_hz=250e6, sdm_reuse=1)
        large = MmxCapacityModel(band_width_hz=7e9, sdm_reuse=1)
        rate = 10e6
        assert large.capacity(rate) > 20 * small.capacity(rate)

    def test_sdm_multiplies(self):
        base = MmxCapacityModel(sdm_reuse=1).capacity(10e6)
        assert MmxCapacityModel(sdm_reuse=4).capacity(10e6) == 4 * base

    def test_motivation_gap(self):
        counts = iot_device_capacity(1e6)
        # Section 1's argument: an order of magnitude or more.
        assert counts["mmx"] > 30 * counts["wifi"]

    def test_invalid_reuse(self):
        with pytest.raises(ValueError):
            MmxCapacityModel(sdm_reuse=0)
