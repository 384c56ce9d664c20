"""Tests for a node's emission bandwidth and channel characterisation."""

import numpy as np
import pytest

from repro.channel import statistics as CS
from repro.channel.multipath import ChannelResponse
from repro.channel.raytrace import trace_paths
from repro.core.ask_fsk import AskFskConfig
from repro.core.otam import OtamModulator
from repro.phy.bits import random_bits
from repro.phy.waveform import Waveform
from repro.sim.environment import default_lab_room
from repro.sim.placement import PlacementSampler

from .signal_fixtures import carrier


def occupied_bandwidth_hz(wave: Waveform, fraction: float = 0.99) -> float:
    """x%-power occupied bandwidth (the regulatory OBW definition).

    The interval that trims ``(1 - fraction) / 2`` of the power off each
    tail of the two-sided Welch PSD of ``wave``.  The FDM allocator
    (§7a) sizes each node's channel from its data rate; this measures
    whether the node's emission actually fits it.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    from scipy.signal import welch

    freqs, psd = welch(wave.samples, fs=wave.sample_rate_hz,
                       nperseg=min(1024, len(wave)),
                       return_onesided=False, detrend=False)
    order = np.argsort(freqs)
    freqs, psd = freqs[order], psd[order]
    cumulative = np.cumsum(psd) / float(np.sum(psd))
    tail = (1.0 - fraction) / 2.0
    low_idx = int(np.searchsorted(cumulative, tail))
    high_idx = min(int(np.searchsorted(cumulative, 1.0 - tail)),
                   freqs.size - 1)
    return float(freqs[high_idx] - freqs[low_idx])


def _otam_wave(rng, bit_rate=1e6, fs=16e6, n_bits=2000):
    cfg = AskFskConfig(bit_rate_bps=bit_rate, sample_rate_hz=fs)
    mod = OtamModulator(cfg, eirp_dbm=0.0)
    return cfg, mod.received_waveform(
        random_bits(n_bits, rng), ChannelResponse(h1=1.0, h0=0.3, paths=()))


class TestOccupiedBandwidth:
    def test_tone_is_narrow(self):
        wave = carrier(0.0, 4e-3, 16e6)
        assert occupied_bandwidth_hz(wave) < 1e5

    def test_otam_obw_matches_config_estimate(self, rng):
        cfg, wave = _otam_wave(rng)
        obw = occupied_bandwidth_hz(wave)
        # The config's occupied-bandwidth rule of thumb (tone separation
        # plus two main lobes) should land within ~2x of the measured
        # 99% OBW.
        assert cfg.occupied_bandwidth_hz / 2 < obw < 2 * cfg.occupied_bandwidth_hz

    def test_faster_bits_occupy_more(self, rng):
        _, slow = _otam_wave(rng, bit_rate=1e6)
        _, fast = _otam_wave(rng, bit_rate=4e6)
        assert (occupied_bandwidth_hz(fast)
                > 2 * occupied_bandwidth_hz(slow))

    def test_invalid_fraction(self, rng):
        _, wave = _otam_wave(rng, n_bits=64)
        with pytest.raises(ValueError):
            occupied_bandwidth_hz(wave, fraction=1.0)


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
