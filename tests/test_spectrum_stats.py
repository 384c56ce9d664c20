"""Tests for spectral analysis and channel characterisation."""

import numpy as np
import pytest

from repro.channel import statistics as CS
from repro.channel.multipath import ChannelResponse
from repro.channel.raytrace import trace_paths
from repro.core.ask_fsk import AskFskConfig
from repro.core.otam import OtamModulator
from repro.phy import spectrum as SP
from repro.phy.bits import random_bits
from repro.phy.waveform import Waveform, carrier
from repro.sim.environment import default_lab_room
from repro.sim.placement import PlacementSampler


def _otam_wave(rng, bit_rate=1e6, fs=16e6, n_bits=2000):
    cfg = AskFskConfig(bit_rate_bps=bit_rate, sample_rate_hz=fs)
    mod = OtamModulator(cfg, eirp_dbm=0.0)
    return cfg, mod.received_waveform(
        random_bits(n_bits, rng), ChannelResponse(h1=1.0, h0=0.3, paths=()))


class TestPsd:
    def test_tone_peaks_at_its_frequency(self):
        wave = carrier(2e6, 2e-3, 16e6)
        freqs, psd = SP.power_spectral_density(wave)
        assert freqs[int(np.argmax(psd))] == pytest.approx(2e6, abs=5e4)

    def test_total_power_parseval(self):
        wave = carrier(1e6, 2e-3, 16e6, amplitude=0.5)
        freqs, psd = SP.power_spectral_density(wave)
        df = freqs[1] - freqs[0]
        assert float(np.sum(psd) * df) == pytest.approx(wave.power(),
                                                        rel=0.05)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            SP.power_spectral_density(Waveform(np.ones(4, dtype=complex),
                                               1e6))


class TestOccupiedBandwidth:
    def test_tone_is_narrow(self):
        wave = carrier(0.0, 4e-3, 16e6)
        assert SP.occupied_bandwidth_hz(wave) < 1e5

    def test_otam_obw_matches_config_estimate(self, rng):
        cfg, wave = _otam_wave(rng)
        obw = SP.occupied_bandwidth_hz(wave)
        # The config's occupied-bandwidth rule of thumb (tone separation
        # plus two main lobes) should land within ~2x of the measured
        # 99% OBW.
        assert cfg.occupied_bandwidth_hz / 2 < obw < 2 * cfg.occupied_bandwidth_hz

    def test_faster_bits_occupy_more(self, rng):
        _, slow = _otam_wave(rng, bit_rate=1e6)
        _, fast = _otam_wave(rng, bit_rate=4e6)
        assert (SP.occupied_bandwidth_hz(fast)
                > 2 * SP.occupied_bandwidth_hz(slow))

    def test_invalid_fraction(self, rng):
        _, wave = _otam_wave(rng, n_bits=64)
        with pytest.raises(ValueError):
            SP.occupied_bandwidth_hz(wave, fraction=1.0)


class TestChannelStatistics:
    def _paths(self):
        room = default_lab_room()
        sampler = PlacementSampler(room, np.random.default_rng(0))
        placement = sampler.sample()
        return trace_paths(placement.node_position, placement.ap_position,
                           room, max_bounces=1)

    def test_k_factor_single_path_infinite(self):
        paths = self._paths()[:1]
        assert CS.rician_k_factor_db(paths, 24e9) == np.inf

    def test_k_factor_no_paths(self):
        assert CS.rician_k_factor_db([], 24e9) == -np.inf

    def test_delay_spread_positive_for_multipath(self):
        paths = self._paths()
        if len(paths) > 1:
            assert CS.rms_delay_spread_s(paths, 24e9) > 0.0

    def test_delay_spread_zero_single_path(self):
        assert CS.rms_delay_spread_s(self._paths()[:1], 24e9) == 0.0

    def test_angular_spread_bounded(self):
        spread = CS.angular_spread_rad(self._paths(), 24e9)
        assert 0.0 <= spread < np.pi

    def test_characterize_validates_paper_claims(self):
        """Section 2: 'typically there are a few paths'; flat fading."""
        room = default_lab_room()
        sampler = PlacementSampler(room, np.random.default_rng(7))
        stats = CS.characterize(room, sampler.sample_many(40))
        assert stats.is_sparse
        assert stats.median_path_count >= 2  # LoS + reflections
        assert stats.median_delay_spread_ns < 50.0
        # Flat fading even at the full 100 Mbps switch cap would need
        # <1 ns; at the HD-camera rates the paper targets it holds.
        assert stats.flat_fading_at(10e6)

    def test_characterize_empty_rejected(self):
        with pytest.raises(ValueError):
            CS.characterize(default_lab_room(), [])
