"""Tests for the end-to-end OTAM link."""

import math

import numpy as np
import pytest

from repro.core.ask_fsk import AskFskConfig
from repro.core.link import OtamLink, _fsk_drift_penalty_db
from repro.phy.bits import random_bits
from repro.phy.preamble import default_preamble_bits
from repro.sim.environment import Blocker
from repro.sim.geometry import Point
from repro.sim.placement import Placement, PlacementSampler
from repro.units import amplitude_to_db


def facing_placement(distance: float = 3.0) -> Placement:
    ap = Point(2.0, 0.15)
    node = Point(2.0, 0.15 + distance)
    return Placement(node_position=node,
                     node_orientation_rad=-math.pi / 2,
                     ap_position=ap,
                     ap_orientation_rad=math.pi / 2)


class TestSnrBreakdown:
    def test_facing_clear_is_strong(self, room):
        link = OtamLink(placement=facing_placement(2.0), room=room)
        bd = link.snr_breakdown()
        assert bd.otam_snr_db > 20.0
        assert not bd.inverted
        assert bd.beam1_level_dbm > bd.beam0_level_dbm

    def test_snr_decreases_with_distance(self, room):
        near = OtamLink(placement=facing_placement(1.5), room=room)
        far = OtamLink(placement=facing_placement(5.0), room=room)
        assert (near.snr_breakdown().otam_snr_db
                > far.snr_breakdown().otam_snr_db)

    def test_blockage_flips_and_degrades(self, room):
        placement = facing_placement(4.0)
        clear = OtamLink(placement=placement, room=room).snr_breakdown()
        room.add_blocker(Blocker(Point(2.0, 2.0), penetration_loss_db=30.0))
        blocked = OtamLink(placement=placement, room=room).snr_breakdown()
        room.clear_blockers()
        assert blocked.no_otam_snr_db < clear.no_otam_snr_db - 10.0
        assert blocked.inverted
        # OTAM survives on the NLoS path: degrades far less than OOK.
        assert (clear.otam_snr_db - blocked.otam_snr_db
                < clear.no_otam_snr_db - blocked.no_otam_snr_db)

    def test_bandwidth_scales_noise(self, room):
        link = OtamLink(placement=facing_placement(3.0), room=room)
        wide = link.snr_breakdown(bandwidth_hz=25e6)
        narrow = link.snr_breakdown(bandwidth_hz=2.5e6)
        assert narrow.otam_snr_db == pytest.approx(wide.otam_snr_db + 10.0,
                                                   abs=0.1)

    def test_implementation_loss_applies(self, room):
        placement = facing_placement(3.0)
        nominal = OtamLink(placement=placement, room=room)
        lossy = OtamLink(placement=placement, room=room,
                         implementation_loss_db=20.0)
        delta = (nominal.snr_breakdown().otam_snr_db
                 - lossy.snr_breakdown().otam_snr_db)
        assert delta == pytest.approx(10.0, abs=0.1)

    def test_ber_predictions_ordered(self, room):
        link = OtamLink(placement=facing_placement(3.0), room=room)
        bd = link.snr_breakdown()
        assert 0.0 <= bd.ber_with_otam() <= 0.5
        assert 0.0 <= bd.ber_without_otam() <= 0.5


class TestSampleLevel:
    def _bits(self, rng, n=128):
        return np.concatenate([default_preamble_bits(), random_bits(n, rng)])

    def test_clean_transmission_zero_ber(self, room, rng):
        link = OtamLink(placement=facing_placement(2.0), room=room)
        report = link.simulate_transmission(self._bits(rng), rng=rng)
        assert report.ber == 0.0
        assert report.num_bits == 128 + 26

    def test_without_otam_also_works_when_facing(self, room, rng):
        link = OtamLink(placement=facing_placement(2.0), room=room)
        report = link.simulate_transmission(self._bits(rng), rng=rng,
                                            use_otam=False)
        assert report.ber == 0.0

    def test_analytic_and_sample_level_agree_on_branch(self, room, rng):
        placement = facing_placement(2.5)
        link = OtamLink(placement=placement, room=room)
        bd = link.snr_breakdown()
        report = link.simulate_transmission(self._bits(rng), rng=rng)
        if bd.ask_snr_db > bd.fsk_snr_db + 6.0:
            assert report.demod.branch == "ask"

    def test_blocked_placement_still_decodes_with_otam(self, room, rng):
        placement = facing_placement(3.0)
        room.add_blocker(Blocker(Point(2.0, 1.5), penetration_loss_db=30.0))
        link = OtamLink(placement=placement, room=room)
        report = link.simulate_transmission(self._bits(rng), rng=rng)
        room.clear_blockers()
        assert report.ber < 0.05

    def test_deterministic_given_seed(self, room):
        placement = facing_placement(3.0)
        link = OtamLink(placement=placement, room=room)
        bits = self._bits(np.random.default_rng(0))
        r1 = link.simulate_transmission(bits, rng=np.random.default_rng(42))
        r2 = link.simulate_transmission(bits, rng=np.random.default_rng(42))
        assert r1.ber == r2.ber

    def test_random_placements_mostly_decode(self, room, rng):
        sampler = PlacementSampler(room, rng)
        failures = 0
        for _ in range(10):
            link = OtamLink(placement=sampler.sample(), room=room)
            report = link.simulate_transmission(self._bits(rng, 64), rng=rng)
            failures += report.ber > 0.01
        assert failures <= 2


class TestFskDriftPenalty:
    """The ``math.sin`` sinc against the ``np.sinc`` it replaced."""

    CONFIG = AskFskConfig()
    SEPARATION_HZ = CONFIG.tone_separation_hz

    def _np_sinc_reference(self, offset_hz: float) -> float:
        offset = abs(offset_hz)
        if offset >= self.SEPARATION_HZ:
            return float("inf")
        attenuation = abs(np.sinc(offset / self.CONFIG.bit_rate_bps))
        if attenuation <= 1e-9:
            return float("inf")
        return -float(amplitude_to_db(attenuation))

    @pytest.mark.parametrize("offset_hz", [
        0.0, 1e-3, -1e-3, 1e3,
        0.25 * SEPARATION_HZ, 0.5 * SEPARATION_HZ, -0.5 * SEPARATION_HZ,
        0.999 * SEPARATION_HZ])
    def test_bit_exact_against_np_sinc(self, offset_hz):
        got = _fsk_drift_penalty_db(offset_hz, self.CONFIG)
        assert got.hex() == self._np_sinc_reference(offset_hz).hex()

    def test_no_offset_is_no_penalty(self):
        assert _fsk_drift_penalty_db(0.0, self.CONFIG) == 0.0

    @pytest.mark.parametrize("multiple", [1.0, 1.5, 10.0])
    def test_at_or_beyond_tone_separation_is_unusable(self, multiple):
        offset = multiple * self.SEPARATION_HZ
        assert _fsk_drift_penalty_db(offset, self.CONFIG) == math.inf
        assert _fsk_drift_penalty_db(-offset, self.CONFIG) == math.inf
